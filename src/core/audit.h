// Recipient-side auditing: verify the privacy guarantee of an anonymized
// dataset from its published form alone (string labels), without access to
// the recodings that produced it. This is what a data recipient — or a data
// publisher double-checking an export — can actually run.

#ifndef SECRETA_CORE_AUDIT_H_
#define SECRETA_CORE_AUDIT_H_

#include <string>
#include <vector>

#include "data/dataset.h"

namespace secreta {

/// Outcome of an audit.
struct AuditReport {
  bool k_anonymous = false;
  bool km_anonymous = false;
  /// Which checks were made; a check not made passes vacuously.
  bool k_checked = false;
  bool km_checked = false;
  /// Smallest relational equivalence-class size found (0 if no relational
  /// attributes).
  size_t min_class_size = 0;
  /// Support of the most fragile itemset in (0, k), or 0 if none.
  size_t worst_itemset_support = 0;
  std::string details;
};

/// \brief Audits `anonymized` for k-anonymity over its relational attributes
/// (grouping records by their published labels) and k^m-anonymity over its
/// transaction attribute (itemsets of published item labels).
///
/// For (k, k^m)-anonymity both flags must hold and the k^m check is repeated
/// inside every relational class; use `check_km_per_class` for that. k is
/// checked when `check_k` is on and there are relational attributes, k^m when
/// `m` >= 1 and there is a transaction attribute; the report's `*_checked`
/// flags say which were. Turn `check_k` off for a release whose relational
/// labels were passed through, not anonymized (min_class_size is then 0).
Result<AuditReport> AuditAnonymizedDataset(const Dataset& anonymized, int k,
                                           int m, bool check_km_per_class,
                                           bool check_k = true);

}  // namespace secreta

#endif  // SECRETA_CORE_AUDIT_H_
