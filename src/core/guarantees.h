// Privacy-guarantee checkers (DESIGN.md Sec. 4). Every algorithm's output is
// validated against its guarantee by the property-test suites; the engine can
// also assert them after each run.

#ifndef SECRETA_CORE_GUARANTEES_H_
#define SECRETA_CORE_GUARANTEES_H_

#include <cstdint>
#include <string>
#include <unordered_map>
#include <vector>

#include "common/annotations.h"
#include "common/string_util.h"
#include "core/equivalence.h"
#include "core/results.h"

namespace secreta {

/// Support of each itemset (sorted ids) counted so far.
using ItemsetCounts =
    std::unordered_map<std::vector<int32_t>, size_t, IntVectorHash>;

/// Adds one to the support of every subset of `items` (sorted) with 1..m
/// elements. Subsets are reached depth-first in index order ({a}, {a,b},
/// {a,c}, {b}, ...), so counting the same records in the same order always
/// builds a map that iterates in the same order.
void CountSubsets(const std::vector<int32_t>& items, int m,
                  ItemsetCounts* counts);

/// True if every equivalence class of the recoding has >= k records.
SECRETA_MUST_USE_RESULT bool IsKAnonymous(const RelationalRecoding& recoding, int k);

/// Describes one k^m violation (for diagnostics).
struct KmViolation {
  std::vector<int32_t> itemset;  // gen indices
  size_t support = 0;
};

/// Finds up to `max_violations` itemsets of size <= m whose support in
/// `records` (restricted to indices in `subset`; pass nullptr for all
/// records) is in (0, k). Empty result means k^m-anonymous.
SECRETA_MUST_USE_RESULT std::vector<KmViolation> FindKmViolations(
    const std::vector<std::vector<int32_t>>& records, int k, int m,
    const std::vector<size_t>* subset = nullptr, size_t max_violations = 1);

/// True if the generalized transactions are k^m-anonymous.
SECRETA_MUST_USE_RESULT bool IsKmAnonymous(const std::vector<std::vector<int32_t>>& records, int k,
                   int m);

/// True if the pair (relational recoding, transaction recoding) is
/// (k, k^m)-anonymous [9]: k-anonymous relational part and, within every
/// relational equivalence class, a k^m-anonymous transaction part.
SECRETA_MUST_USE_RESULT bool IsKKmAnonymous(const RelationalRecoding& recoding,
                    const std::vector<std::vector<int32_t>>& txn_records,
                    int k, int m);

}  // namespace secreta

#endif  // SECRETA_CORE_GUARANTEES_H_
