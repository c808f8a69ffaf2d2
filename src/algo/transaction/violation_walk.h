// The one k^m violation search of the transaction algorithms. Records are
// sorted sets of integer keys (gen ids for GenSpace, first items under cut
// nodes for the AA loop), and each key keeps the ascending list of records
// holding it. The walk visits itemsets in the DFS order of the count tree of
// Terrovitis et al. [10] (Sec. 5): keys ascending, each prefix before its
// extensions, extensions ascending. It counts a prefix's one-key extensions
// over the prefix's rows only, so it stops at the first violations without
// counting the rest, and it never materializes the tree.

#ifndef SECRETA_ALGO_TRANSACTION_VIOLATION_WALK_H_
#define SECRETA_ALGO_TRANSACTION_VIOLATION_WALK_H_

#include <cstdint>
#include <vector>

#include "core/guarantees.h"

namespace secreta {

/// \brief Itemsets of at most `m` keys with support in (0, k) over
/// `records`, up to `max_violations`, smallest support first among those
/// found.
///
/// `records[r]` holds record r's sorted, distinct keys, and `key_rows[key]`
/// the ascending records holding `key`; the two must agree. Keys with an
/// empty row list (dead gens, support-0 gens, retired keys) are skipped.
/// The walk starts at the itemsets whose smallest key is `from`: a caller
/// that knows every itemset with a smaller first key has support 0 or >= k
/// passes the first key of the last search's first violation (or smaller)
/// and gets the vector a walk from 0 returns.
std::vector<KmViolation> WalkKmViolations(
    const std::vector<std::vector<uint32_t>>& key_rows,
    const std::vector<std::vector<int32_t>>& records, int m, int k,
    size_t max_violations, int32_t from = 0);

}  // namespace secreta

#endif  // SECRETA_ALGO_TRANSACTION_VIOLATION_WALK_H_
