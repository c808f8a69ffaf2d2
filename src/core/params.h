// Anonymization parameters. The Evaluation-mode sliders of the paper (k, m,
// delta) plus algorithm-specific knobs, all in one struct so parameter sweeps
// (varying-parameter execution) can vary any field by name.

#ifndef SECRETA_CORE_PARAMS_H_
#define SECRETA_CORE_PARAMS_H_

#include <cstdint>
#include <string>

#include "common/status.h"

namespace secreta {

/// Parameters shared by all anonymization algorithms.
struct AnonParams {
  /// Privacy parameter k: minimum equivalence-class size / itemset support.
  int k = 5;
  /// Maximum adversary knowledge (itemset size) for k^m-anonymity.
  int m = 2;
  /// RT-pipeline merge threshold: a relational cluster whose transaction
  /// anonymization would cost more than `delta` (normalized utility loss in
  /// [0,1]) is merged with a neighbouring cluster first (Sec. 3 demo knob).
  double delta = 0.35;
  /// Number of horizontal partitions used by LRA.
  int lra_partitions = 8;
  /// Number of vertical item-domain parts used by VPA.
  int vpa_parts = 4;
  /// Confidence threshold for the rho-uncertainty extension ([2]).
  double rho = 0.5;
  /// Seed for randomized components.
  uint64_t seed = 42;

  /// Sets a parameter by name ("k", "m", "delta", "lra_partitions",
  /// "vpa_parts", "rho"); used by varying-parameter execution. Refuses
  /// non-finite values, and integer parameters an int cannot hold (integer
  /// parameters round halves away from zero).
  Status Set(const std::string& name, double value);
  /// Reads a parameter by name.
  Result<double> Get(const std::string& name) const;

  /// Validates ranges (k >= 2, m >= 1, finite delta >= 0, rho in (0, 1],
  /// ...); NaN is out of every range.
  Status Validate() const;
};

}  // namespace secreta

#endif  // SECRETA_CORE_PARAMS_H_
