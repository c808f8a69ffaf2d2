// Deterministic RNG wrapper. All randomized components (data generator,
// workload generator, policy strategies) take an explicit seed so experiments
// reproduce bit-for-bit.

#ifndef SECRETA_COMMON_RANDOM_H_
#define SECRETA_COMMON_RANDOM_H_

#include <cstdint>
#include <random>
#include <vector>

namespace secreta {

/// Seeded pseudo-random generator with the distributions SECRETA needs.
class Rng {
 public:
  explicit Rng(uint64_t seed) : engine_(seed) {}

  /// Uniform integer in [lo, hi] inclusive.
  int64_t UniformInt(int64_t lo, int64_t hi) {
    std::uniform_int_distribution<int64_t> dist(lo, hi);
    return dist(engine_);
  }

  /// Uniform double in [lo, hi).
  double UniformDouble(double lo, double hi) {
    std::uniform_real_distribution<double> dist(lo, hi);
    return dist(engine_);
  }

  /// Bernoulli trial with probability p of true.
  bool Bernoulli(double p) {
    std::bernoulli_distribution dist(p);
    return dist(engine_);
  }

  /// Zipf-distributed rank in [0, n), exponent `s` (s=0 is uniform).
  /// Implemented by inverse-CDF over precomputed weights for modest n; for the
  /// item-domain sizes SECRETA benchmarks use (<= a few thousand) this is fine.
  size_t Zipf(size_t n, double s);

  /// Random subset of size min(m, n) drawn without replacement from [0, n),
  /// in draw order. A partial Fisher-Yates shuffle: O(m) time per call once
  /// some call has passed an n at least this large.
  std::vector<size_t> Sample(size_t n, size_t m);

  std::mt19937_64& engine() { return engine_; }

 private:
  std::mt19937_64 engine_;
  // Cache for Zipf CDF keyed by (n, s); reset when parameters change.
  size_t zipf_n_ = 0;
  double zipf_s_ = -1.0;
  std::vector<double> zipf_cdf_;
  // Sample's shuffle positions: the identity over [0, size) between calls.
  std::vector<size_t> identity_;
};

}  // namespace secreta

#endif  // SECRETA_COMMON_RANDOM_H_
