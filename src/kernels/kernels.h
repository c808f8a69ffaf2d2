// Runtime-dispatched SIMD kernels for the bitmap / posting-list hot paths.
//
// Every bitwise hot loop in the tree goes through this header instead of
// hand-rolling `__builtin_popcountll` (the repo linter enforces it): the three
// kernels below are the entire vocabulary the query index, the itemset
// support counts and the evaluators need. A backend (scalar, AVX2, NEON) is
// selected once at startup from CPU feature detection; tests, benchmarks and
// the `--kernels=` CLI flag can pin a specific tier, and the scalar
// reference implementations stay reachable under kernels::scalar so property
// tests can assert bit-identity of every tier against them.
//
// Thread-safety: the active backend is published through an atomic pointer;
// concurrent kernel calls and SetTier are race-free (callers in flight keep
// the table they loaded).

#ifndef SECRETA_KERNELS_KERNELS_H_
#define SECRETA_KERNELS_KERNELS_H_

#include <cstddef>
#include <cstdint>
#include <string>

#include "common/status.h"

namespace secreta::kernels {

/// Backend tiers, in dispatch-preference order.
enum class Tier {
  kScalar = 0,  // portable C++, always available
  kAvx2 = 1,    // x86-64 AVX2 (Harley-Seal popcount, 8-lane intersection)
  kNeon = 2,    // aarch64 NEON (vcnt + pairwise adds)
};

/// Human-readable tier name ("scalar", "avx2", "neon").
const char* TierName(Tier tier);

/// The tier all kernel calls currently dispatch to. Resolved once at first
/// use: the best tier the CPU supports, unless the SECRETA_KERNELS
/// environment variable names another available tier.
Tier ActiveTier();

/// Name of the active tier (for logs, metrics and bench output).
const char* ActiveTierName();

/// True if `tier` can run on this machine (scalar always can).
bool TierAvailable(Tier tier);

/// Pins the dispatch to the named tier ("scalar", "avx2", "neon").
/// InvalidArgument for unknown names; FailedPrecondition when the CPU lacks
/// the tier. Used by the `--kernels=` flag and by the property tests.
SECRETA_MUST_USE_RESULT Status SetTier(const std::string& name);

// ---------------------------------------------------------------------------
// Fused kernels. `n` counts 64-bit words (bitmap kernels) or 32-bit elements
// (sorted-list kernels). All are pure functions of their inputs and return
// bit-identical results on every tier.
// ---------------------------------------------------------------------------

/// popcount(a[i] & b[i]) summed over i in [0, n).
uint64_t AndPopcount(const uint64_t* a, const uint64_t* b, size_t n);

/// popcount(w[i]) summed over i in [0, n).
uint64_t PopcountRange(const uint64_t* w, size_t n);

/// |a ∩ b| for strictly-increasing sorted u32 lists.
size_t IntersectCount(const uint32_t* a, size_t na, const uint32_t* b,
                      size_t nb);

// ---------------------------------------------------------------------------
// Scalar reference implementations (the oracle every tier is tested
// against). Also the bodies of the scalar tier itself.
// ---------------------------------------------------------------------------

namespace scalar {
uint64_t AndPopcount(const uint64_t* a, const uint64_t* b, size_t n);
uint64_t PopcountRange(const uint64_t* w, size_t n);
size_t IntersectCount(const uint32_t* a, size_t na, const uint32_t* b,
                      size_t nb);
}  // namespace scalar

// ---------------------------------------------------------------------------
// Backend tables (internal; exposed so the per-ISA translation units can
// register themselves and the tests can enumerate available tiers).
// ---------------------------------------------------------------------------

struct KernelTable {
  Tier tier;
  uint64_t (*and_popcount)(const uint64_t*, const uint64_t*, size_t);
  uint64_t (*popcount_range)(const uint64_t*, size_t);
  size_t (*intersect_count)(const uint32_t*, size_t, const uint32_t*, size_t);
};

/// Table for `tier`, or nullptr when this build/CPU cannot run it.
const KernelTable* TableFor(Tier tier);

/// Per-ISA tables, defined in kernels_avx2.cc / kernels_neon.cc. Each
/// returns nullptr when the build target or the running CPU lacks the ISA,
/// so the dispatcher never calls into an illegal instruction.
const KernelTable* Avx2Table();
const KernelTable* NeonTable();

}  // namespace secreta::kernels

#endif  // SECRETA_KERNELS_KERNELS_H_
