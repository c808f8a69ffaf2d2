#include "kernels/kernels.h"

#include <atomic>
#include <cstdlib>

namespace secreta::kernels {

namespace scalar {

// The scalar tier deliberately uses __builtin_popcountll: on baseline x86-64
// (no -mpopcnt) the compiler lowers it to the portable SWAR sequence, which
// is the honest "no ISA extensions" baseline the AVX2/NEON speedup gates in
// bench/kernels_bench.cc compare against.
uint64_t AndPopcount(const uint64_t* a, const uint64_t* b, size_t n) {
  uint64_t total = 0;
  for (size_t i = 0; i < n; ++i) {
    total += static_cast<uint64_t>(__builtin_popcountll(a[i] & b[i]));
  }
  return total;
}

uint64_t PopcountRange(const uint64_t* w, size_t n) {
  uint64_t total = 0;
  for (size_t i = 0; i < n; ++i) {
    total += static_cast<uint64_t>(__builtin_popcountll(w[i]));
  }
  return total;
}

size_t IntersectCount(const uint32_t* a, size_t na, const uint32_t* b,
                      size_t nb) {
  // Galloping merge: when one list is much shorter, binary-search strides
  // through the longer one; otherwise a plain two-pointer merge.
  if (na > nb) {
    const uint32_t* t = a;
    a = b;
    b = t;
    size_t tn = na;
    na = nb;
    nb = tn;
  }
  size_t count = 0;
  if (na == 0) return 0;
  if (nb / na >= 32) {
    size_t lo = 0;
    for (size_t i = 0; i < na; ++i) {
      uint32_t key = a[i];
      // Gallop to an upper bound, then bisect.
      size_t step = 1;
      size_t hi = lo;
      while (hi < nb && b[hi] < key) {
        lo = hi;
        hi += step;
        step <<= 1;
      }
      if (hi > nb) hi = nb;
      while (lo < hi) {
        size_t mid = lo + (hi - lo) / 2;
        if (b[mid] < key) {
          lo = mid + 1;
        } else {
          hi = mid;
        }
      }
      if (lo < nb && b[lo] == key) {
        ++count;
        ++lo;
      }
    }
    return count;
  }
  size_t i = 0;
  size_t j = 0;
  while (i < na && j < nb) {
    uint32_t x = a[i];
    uint32_t y = b[j];
    count += (x == y);
    i += (x <= y);
    j += (y <= x);
  }
  return count;
}

}  // namespace scalar

namespace {

const KernelTable kScalarTable = {
    Tier::kScalar,
    &scalar::AndPopcount,
    &scalar::PopcountRange,
    &scalar::IntersectCount,
};

Tier BestTier() {
  if (TableFor(Tier::kAvx2) != nullptr) return Tier::kAvx2;
  if (TableFor(Tier::kNeon) != nullptr) return Tier::kNeon;
  return Tier::kScalar;
}

// The active table, published with release semantics. Initialization runs
// once (std::atomic first-use race is benign: every initializer computes the
// same value).
std::atomic<const KernelTable*> g_active{nullptr};

const KernelTable* ActiveTable() {
  const KernelTable* table = g_active.load(std::memory_order_acquire);
  if (table != nullptr) return table;
  Tier tier = BestTier();
  // SECRETA_KERNELS pins the startup tier (the --kernels flag calls SetTier
  // later and wins). An unknown or unavailable name falls back to auto.
  if (const char* env = std::getenv("SECRETA_KERNELS")) {
    for (Tier t : {Tier::kScalar, Tier::kAvx2, Tier::kNeon}) {
      if (std::string(env) == TierName(t) && TierAvailable(t)) tier = t;
    }
  }
  table = TableFor(tier);
  g_active.store(table, std::memory_order_release);
  return table;
}

}  // namespace

const KernelTable* TableFor(Tier tier) {
  switch (tier) {
    case Tier::kScalar:
      return &kScalarTable;
    case Tier::kAvx2:
      return Avx2Table();
    case Tier::kNeon:
      return NeonTable();
  }
  return nullptr;
}

const char* TierName(Tier tier) {
  switch (tier) {
    case Tier::kScalar:
      return "scalar";
    case Tier::kAvx2:
      return "avx2";
    case Tier::kNeon:
      return "neon";
  }
  return "unknown";
}

Tier ActiveTier() { return ActiveTable()->tier; }

const char* ActiveTierName() { return TierName(ActiveTier()); }

bool TierAvailable(Tier tier) { return TableFor(tier) != nullptr; }

Status SetTier(const std::string& name) {
  for (Tier tier : {Tier::kScalar, Tier::kAvx2, Tier::kNeon}) {
    if (name != TierName(tier)) continue;
    const KernelTable* table = TableFor(tier);
    if (table == nullptr) {
      return Status::FailedPrecondition("kernel tier '" + name +
                                        "' is not available on this machine");
    }
    g_active.store(table, std::memory_order_release);
    return Status::OK();
  }
  return Status::InvalidArgument(
      "unknown kernel tier '" + name + "' (expected scalar, avx2 or neon)");
}

uint64_t AndPopcount(const uint64_t* a, const uint64_t* b, size_t n) {
  return ActiveTable()->and_popcount(a, b, n);
}

uint64_t PopcountRange(const uint64_t* w, size_t n) {
  return ActiveTable()->popcount_range(w, n);
}

size_t IntersectCount(const uint32_t* a, size_t na, const uint32_t* b,
                      size_t nb) {
  return ActiveTable()->intersect_count(a, na, b, nb);
}

}  // namespace secreta::kernels
