// Property tests for the SIMD kernel layer: bit-identity of every available
// backend tier against the scalar reference at awkward tail widths, and
// RecordBitmap's memoized cardinality.

#include "kernels/kernels.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstring>
#include <random>
#include <set>
#include <vector>

#include "query/query_index.h"
#include "tests/test_util.h"

namespace secreta {
namespace {

using kernels::KernelTable;
using kernels::TableFor;
using kernels::Tier;

std::vector<const KernelTable*> AvailableTables() {
  std::vector<const KernelTable*> tables;
  for (Tier tier : {Tier::kScalar, Tier::kAvx2, Tier::kNeon}) {
    if (const KernelTable* table = TableFor(tier)) tables.push_back(table);
  }
  return tables;
}

// Word counts straddling every dispatch boundary: empty, sub-vector tails,
// one AVX2 vector (4 words), one Harley-Seal block (64 words), and lengths
// that are not multiples of either.
const size_t kWidths[] = {0, 1, 2, 3, 4, 5, 15, 16, 17,
                          63, 64, 65, 100, 128, 129, 257};

TEST(KernelsTest, ScalarTierAlwaysAvailable) {
  EXPECT_TRUE(kernels::TierAvailable(Tier::kScalar));
  ASSERT_NE(TableFor(Tier::kScalar), nullptr);
  EXPECT_GE(AvailableTables().size(), 1u);
}

TEST(KernelsTest, PopcountKernelsMatchScalarAtEveryWidth) {
  std::mt19937_64 rng(42);
  for (size_t n : kWidths) {
    std::vector<uint64_t> a(n), b(n);
    for (size_t i = 0; i < n; ++i) {
      a[i] = rng();
      b[i] = rng();
    }
    // Saturated tails catch lane-masking bugs that random data can hide.
    if (n > 0) {
      a[n - 1] = ~uint64_t{0};
      b[n - 1] = ~uint64_t{0};
    }
    uint64_t want_and = kernels::scalar::AndPopcount(a.data(), b.data(), n);
    uint64_t want_pop = kernels::scalar::PopcountRange(a.data(), n);
    for (const KernelTable* table : AvailableTables()) {
      SCOPED_TRACE(::testing::Message() << "tier="
                                      << kernels::TierName(table->tier)
                                      << " n=" << n);
      EXPECT_EQ(table->and_popcount(a.data(), b.data(), n), want_and);
      EXPECT_EQ(table->popcount_range(a.data(), n), want_pop);
    }
  }
}

// Strictly-increasing random list of `n` values drawn from [0, universe).
std::vector<uint32_t> SortedList(std::mt19937_64& rng, size_t n,
                                 uint32_t universe) {
  std::set<uint32_t> vals;
  while (vals.size() < n) {
    vals.insert(static_cast<uint32_t>(rng() % universe));
  }
  return std::vector<uint32_t>(vals.begin(), vals.end());
}

TEST(KernelsTest, IntersectCountMatchesScalarOracle) {
  std::mt19937_64 rng(7);
  // (na, nb) pairs spanning the merge, 8-lane block and galloping regimes.
  const std::pair<size_t, size_t> shapes[] = {
      {0, 0},  {0, 10},  {1, 1},   {7, 9},     {8, 8},   {16, 16},
      {9, 64}, {64, 63}, {100, 4000},  // nb/na >= 32: galloping path
      {500, 500}, {1000, 3}};
  for (auto [na, nb] : shapes) {
    std::vector<uint32_t> a = SortedList(rng, na, 8192);
    std::vector<uint32_t> b = SortedList(rng, nb, 8192);
    std::vector<uint32_t> both;
    std::set_intersection(a.begin(), a.end(), b.begin(), b.end(),
                          std::back_inserter(both));
    for (const KernelTable* table : AvailableTables()) {
      SCOPED_TRACE(::testing::Message() << "tier="
                                      << kernels::TierName(table->tier)
                                      << " na=" << na << " nb=" << nb);
      EXPECT_EQ(table->intersect_count(a.data(), a.size(), b.data(), b.size()),
                both.size());
      EXPECT_EQ(table->intersect_count(b.data(), b.size(), a.data(), a.size()),
                both.size());
    }
  }
  // Identical lists: every element intersects.
  std::vector<uint32_t> same = SortedList(rng, 300, 100000);
  for (const KernelTable* table : AvailableTables()) {
    EXPECT_EQ(table->intersect_count(same.data(), same.size(), same.data(),
                                     same.size()),
              same.size());
  }
}

TEST(KernelsTest, SetTierRejectsUnknownAndUnavailable) {
  EXPECT_FALSE(kernels::SetTier("sse9").ok());
  ASSERT_OK(kernels::SetTier("scalar"));
  EXPECT_EQ(kernels::ActiveTier(), Tier::kScalar);
  if (kernels::TierAvailable(Tier::kAvx2)) {
    ASSERT_OK(kernels::SetTier("avx2"));
    EXPECT_EQ(kernels::ActiveTier(), Tier::kAvx2);
  } else {
    EXPECT_FALSE(kernels::SetTier("avx2").ok());
  }
  // Restore the machine's best tier for the rest of the suite.
  const char* best = kernels::TierAvailable(Tier::kAvx2)   ? "avx2"
                     : kernels::TierAvailable(Tier::kNeon) ? "neon"
                                                           : "scalar";
  ASSERT_OK(kernels::SetTier(best));
}

// --- RecordBitmap memoized cardinality --------------------------------------

TEST(RecordBitmapTest, CountIsCachedAndInvalidatedBySet) {
  RecordBitmap bitmap(200);
  for (size_t r = 0; r < 200; r += 3) bitmap.Set(r);
  size_t first = bitmap.Count();
  EXPECT_EQ(first, 67u);
  EXPECT_EQ(bitmap.Count(), first);  // cached path
  bitmap.Set(1);
  EXPECT_EQ(bitmap.Count(), first + 1);  // Set invalidated the cache
  RecordBitmap copy = bitmap;            // cache travels with copies
  EXPECT_EQ(copy.Count(), first + 1);
}

TEST(RecordBitmapTest, AndCountMatchesMaterializedIntersection) {
  std::mt19937_64 rng(99);
  RecordBitmap a(1000), b(1000);
  size_t want = 0;
  for (size_t r = 0; r < 1000; ++r) {
    bool in_a = rng() & 1, in_b = rng() & 1;
    if (in_a) a.Set(r);
    if (in_b) b.Set(r);
    if (in_a && in_b) ++want;
  }
  EXPECT_EQ(RecordBitmap::AndCount(a, b), want);
  RecordBitmap both = a;
  both.AndWith(b);
  EXPECT_EQ(both.Count(), want);
}

}  // namespace
}  // namespace secreta
