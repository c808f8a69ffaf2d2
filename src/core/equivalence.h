// Equivalence-class computation: records grouped by their (recoded) QI
// vector. Used by k-anonymity checks, discernibility metrics, and the RT
// pipeline's per-class transaction anonymization.

#ifndef SECRETA_CORE_EQUIVALENCE_H_
#define SECRETA_CORE_EQUIVALENCE_H_

#include <cstdint>
#include <vector>

#include "common/csr.h"
#include "core/context.h"
#include "core/results.h"

namespace secreta {

/// Partition of record indices into equivalence classes. Classes are
/// numbered in the order of their first record.
struct EquivalenceClasses {
  /// Record indices of each class, ascending.
  Csr groups;
  /// Class index of each record.
  std::vector<uint32_t> group_of;

  size_t num_groups() const { return groups.num_keys(); }
  /// Size of the smallest class (0 when there are no records).
  size_t MinGroupSize() const;
};

/// Groups records by their recoded QI vectors.
EquivalenceClasses GroupByRecoding(const RelationalRecoding& recoding);

/// Groups records by their original (leaf) QI vectors.
EquivalenceClasses GroupByOriginal(const RelationalContext& context);

}  // namespace secreta

#endif  // SECRETA_CORE_EQUIVALENCE_H_
