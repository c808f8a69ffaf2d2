#include "kernels/kernels.h"

// AVX2 backend. This translation unit is compiled with -mavx2 -mpopcnt (see
// src/CMakeLists.txt) on x86-64 targets only; the dispatcher calls in only
// after __builtin_cpu_supports("avx2") confirmed the CPU executes it.
//
// The popcount kernels fuse the load, the AND and a Harley-Seal
// carry-save adder network (Muła, Kurz, Lemire: "Faster population counts
// using AVX2 instructions"): 16 x 256-bit words per iteration accumulate
// into a 16x-weighted counter via in-register full adders, with the in-lane
// nibble-LUT popcount run once per 16 words instead of once per word.

#if defined(__x86_64__) || defined(_M_X64)

#include <immintrin.h>

namespace secreta::kernels {
namespace {

inline __m256i PopcountNibbleLut(__m256i v) {
  const __m256i lut = _mm256_setr_epi8(0, 1, 1, 2, 1, 2, 2, 3, 1, 2, 2, 3, 2,
                                       3, 3, 4, 0, 1, 1, 2, 1, 2, 2, 3, 1, 2,
                                       2, 3, 2, 3, 3, 4);
  const __m256i low_mask = _mm256_set1_epi8(0x0f);
  __m256i lo = _mm256_and_si256(v, low_mask);
  __m256i hi = _mm256_and_si256(_mm256_srli_epi16(v, 4), low_mask);
  __m256i cnt = _mm256_add_epi8(_mm256_shuffle_epi8(lut, lo),
                                _mm256_shuffle_epi8(lut, hi));
  return _mm256_sad_epu8(cnt, _mm256_setzero_si256());  // 4 x u64 sums
}

// Carry-save adder: (h, l) = a + b + c with l the sum and h the carry.
inline void Csa(__m256i a, __m256i b, __m256i c, __m256i* h, __m256i* l) {
  __m256i u = _mm256_xor_si256(a, b);
  *h = _mm256_or_si256(_mm256_and_si256(a, b), _mm256_and_si256(u, c));
  *l = _mm256_xor_si256(u, c);
}

// Harley-Seal over a stream of 256-bit values produced by `load(i)`, for i
// in [0, n256). `Load` must be cheap and pure.
template <typename Load>
inline uint64_t HarleySeal(size_t n256, Load load) {
  __m256i total = _mm256_setzero_si256();
  __m256i ones = _mm256_setzero_si256();
  __m256i twos = _mm256_setzero_si256();
  __m256i fours = _mm256_setzero_si256();
  __m256i eights = _mm256_setzero_si256();
  size_t i = 0;
  for (; i + 16 <= n256; i += 16) {
    __m256i twos_a, twos_b, fours_a, fours_b, eights_a, eights_b, sixteens;
    Csa(ones, load(i + 0), load(i + 1), &twos_a, &ones);
    Csa(ones, load(i + 2), load(i + 3), &twos_b, &ones);
    Csa(twos, twos_a, twos_b, &fours_a, &twos);
    Csa(ones, load(i + 4), load(i + 5), &twos_a, &ones);
    Csa(ones, load(i + 6), load(i + 7), &twos_b, &ones);
    Csa(twos, twos_a, twos_b, &fours_b, &twos);
    Csa(fours, fours_a, fours_b, &eights_a, &fours);
    Csa(ones, load(i + 8), load(i + 9), &twos_a, &ones);
    Csa(ones, load(i + 10), load(i + 11), &twos_b, &ones);
    Csa(twos, twos_a, twos_b, &fours_a, &twos);
    Csa(ones, load(i + 12), load(i + 13), &twos_a, &ones);
    Csa(ones, load(i + 14), load(i + 15), &twos_b, &ones);
    Csa(twos, twos_a, twos_b, &fours_b, &twos);
    Csa(fours, fours_a, fours_b, &eights_b, &fours);
    Csa(eights, eights_a, eights_b, &sixteens, &eights);
    total = _mm256_add_epi64(total, PopcountNibbleLut(sixteens));
  }
  total = _mm256_slli_epi64(total, 4);
  total = _mm256_add_epi64(total,
                           _mm256_slli_epi64(PopcountNibbleLut(eights), 3));
  total = _mm256_add_epi64(total,
                           _mm256_slli_epi64(PopcountNibbleLut(fours), 2));
  total = _mm256_add_epi64(total,
                           _mm256_slli_epi64(PopcountNibbleLut(twos), 1));
  total = _mm256_add_epi64(total, PopcountNibbleLut(ones));
  for (; i < n256; ++i) {
    total = _mm256_add_epi64(total, PopcountNibbleLut(load(i)));
  }
  uint64_t lanes[4];
  _mm256_storeu_si256(reinterpret_cast<__m256i*>(lanes), total);
  return lanes[0] + lanes[1] + lanes[2] + lanes[3];
}

uint64_t Avx2AndPopcount(const uint64_t* a, const uint64_t* b, size_t n) {
  size_t n256 = n / 4;
  uint64_t total = HarleySeal(n256, [&](size_t i) {
    __m256i va =
        _mm256_loadu_si256(reinterpret_cast<const __m256i*>(a) + i);
    __m256i vb =
        _mm256_loadu_si256(reinterpret_cast<const __m256i*>(b) + i);
    return _mm256_and_si256(va, vb);
  });
  for (size_t i = n256 * 4; i < n; ++i) {
    total += static_cast<uint64_t>(_mm_popcnt_u64(a[i] & b[i]));
  }
  return total;
}

uint64_t Avx2PopcountRange(const uint64_t* w, size_t n) {
  size_t n256 = n / 4;
  uint64_t total = HarleySeal(n256, [&](size_t i) {
    return _mm256_loadu_si256(reinterpret_cast<const __m256i*>(w) + i);
  });
  for (size_t i = n256 * 4; i < n; ++i) {
    total += static_cast<uint64_t>(_mm_popcnt_u64(w[i]));
  }
  return total;
}

size_t Avx2IntersectCount(const uint32_t* a, size_t na, const uint32_t* b,
                          size_t nb) {
  // Very asymmetric lists gallop better than they vectorize.
  if (na > nb) {
    const uint32_t* t = a;
    a = b;
    b = t;
    size_t tn = na;
    na = nb;
    nb = tn;
  }
  if (na == 0) return 0;
  if (nb / na >= 32) return scalar::IntersectCount(a, na, b, nb);
  // Block-wise all-pairs compare: an 8-element block of `a` against an
  // 8-element block of `b` through all 8 cyclic rotations, then advance the
  // block with the smaller maximum (both when equal).
  size_t count = 0;
  size_t i = 0;
  size_t j = 0;
  while (i + 8 <= na && j + 8 <= nb) {
    __m256i va = _mm256_loadu_si256(reinterpret_cast<const __m256i*>(a + i));
    __m256i vb = _mm256_loadu_si256(reinterpret_cast<const __m256i*>(b + j));
    __m256i matches = _mm256_setzero_si256();
    __m256i rot = vb;
    const __m256i rotate_left1 =
        _mm256_setr_epi32(1, 2, 3, 4, 5, 6, 7, 0);
    for (int r = 0; r < 8; ++r) {
      matches =
          _mm256_or_si256(matches, _mm256_cmpeq_epi32(va, rot));
      rot = _mm256_permutevar8x32_epi32(rot, rotate_left1);
    }
    unsigned mask =
        static_cast<unsigned>(_mm256_movemask_ps(_mm256_castsi256_ps(matches)));
    count += static_cast<size_t>(_mm_popcnt_u32(mask));
    uint32_t a_max = a[i + 7];
    uint32_t b_max = b[j + 7];
    i += (a_max <= b_max) ? 8 : 0;
    j += (b_max <= a_max) ? 8 : 0;
  }
  // Scalar tail merge.
  while (i < na && j < nb) {
    uint32_t x = a[i];
    uint32_t y = b[j];
    count += (x == y);
    i += (x <= y);
    j += (y <= x);
  }
  return count;
}

const KernelTable kAvx2Table = {
    Tier::kAvx2,
    &Avx2AndPopcount,
    &Avx2PopcountRange,
    &Avx2IntersectCount,
};

}  // namespace

const KernelTable* Avx2Table() {
  static const bool supported = __builtin_cpu_supports("avx2") != 0;
  return supported ? &kAvx2Table : nullptr;
}

}  // namespace secreta::kernels

#else  // !x86-64

namespace secreta::kernels {
const KernelTable* Avx2Table() { return nullptr; }
}  // namespace secreta::kernels

#endif
