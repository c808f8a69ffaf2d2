#include "common/random.h"

#include <algorithm>
#include <cmath>

namespace secreta {

size_t Rng::Zipf(size_t n, double s) {
  if (n == 0) return 0;
  if (zipf_n_ != n || zipf_s_ != s) {
    zipf_cdf_.resize(n);
    double total = 0;
    for (size_t i = 0; i < n; ++i) {
      total += 1.0 / std::pow(static_cast<double>(i + 1), s);
      zipf_cdf_[i] = total;
    }
    for (size_t i = 0; i < n; ++i) zipf_cdf_[i] /= total;
    zipf_n_ = n;
    zipf_s_ = s;
  }
  double u = UniformDouble(0.0, 1.0);
  auto it = std::lower_bound(zipf_cdf_.begin(), zipf_cdf_.end(), u);
  if (it == zipf_cdf_.end()) return n - 1;
  return static_cast<size_t>(it - zipf_cdf_.begin());
}

std::vector<size_t> Rng::Sample(size_t n, size_t m) {
  m = std::min(m, n);
  while (identity_.size() < n) identity_.push_back(identity_.size());
  // Partial Fisher-Yates over [0, n): step i swaps position i with a uniform
  // j in [i, n). `sample` first records each step's j.
  std::vector<size_t> sample(m);
  for (size_t i = 0; i < m; ++i) {
    size_t j = static_cast<size_t>(UniformInt(static_cast<int64_t>(i),
                                              static_cast<int64_t>(n - 1)));
    std::swap(identity_[i], identity_[j]);
    sample[i] = j;
  }
  // Undo the swaps in reverse. No step after step i touches position i, so
  // just before undoing step i, position i holds the i-th draw.
  for (size_t i = m; i-- > 0;) {
    size_t j = sample[i];
    sample[i] = identity_[i];
    std::swap(identity_[i], identity_[j]);
  }
  return sample;
}

}  // namespace secreta
