#include "kernels/kernels.h"

// NEON backend (aarch64). AdvSIMD is mandatory on aarch64, so availability
// is a compile-time fact — no runtime CPU probe needed. The popcount kernels
// fuse the load, the AND and vcntq_u8 + pairwise widening adds; the
// sorted-list intersection stays on the scalar galloping merge (NEON lacks a
// cheap 32-bit all-pairs compare, and the merge is branch-predictable).

#if defined(__aarch64__)

#include <arm_neon.h>

namespace secreta::kernels {
namespace {

inline uint64_t HorizontalPopcount(uint8x16_t bytes) {
  return vaddvq_u64(vpaddlq_u32(vpaddlq_u16(vpaddlq_u8(vcntq_u8(bytes)))));
}

uint64_t NeonAndPopcount(const uint64_t* a, const uint64_t* b, size_t n) {
  uint64_t total = 0;
  size_t i = 0;
  for (; i + 2 <= n; i += 2) {
    uint64x2_t va = vld1q_u64(a + i);
    uint64x2_t vb = vld1q_u64(b + i);
    total += HorizontalPopcount(vreinterpretq_u8_u64(vandq_u64(va, vb)));
  }
  for (; i < n; ++i) {
    total += static_cast<uint64_t>(__builtin_popcountll(a[i] & b[i]));
  }
  return total;
}

uint64_t NeonPopcountRange(const uint64_t* w, size_t n) {
  uint64_t total = 0;
  size_t i = 0;
  for (; i + 2 <= n; i += 2) {
    total += HorizontalPopcount(vreinterpretq_u8_u64(vld1q_u64(w + i)));
  }
  for (; i < n; ++i) {
    total += static_cast<uint64_t>(__builtin_popcountll(w[i]));
  }
  return total;
}

const KernelTable kNeonTable = {
    Tier::kNeon,
    &NeonAndPopcount,
    &NeonPopcountRange,
    &scalar::IntersectCount,
};

}  // namespace

const KernelTable* NeonTable() { return &kNeonTable; }

}  // namespace secreta::kernels

#else  // !aarch64

namespace secreta::kernels {
const KernelTable* NeonTable() { return nullptr; }
}  // namespace secreta::kernels

#endif
