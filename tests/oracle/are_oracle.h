// Scan oracle for COUNT queries and their anonymized estimates: the
// reference the indexed evaluator (query/query_evaluator.h) is checked
// against bit-for-bit in tests and benches.
//
// Each call resolves the query itself, from the Dataset, the QI hierarchies
// and the RelationalContext, into per-clause match vectors and sorted leaf
// positions, then makes one O(records x clauses) pass over the records. It
// shares no evaluation code with the indexed path: the lint rule
// oracle-boundary (tools/lint/check_source.py) keeps query/query_evaluator.h
// and query/query_index.h out of tests/oracle, and src/ never includes it.

#ifndef SECRETA_TESTS_ORACLE_ARE_ORACLE_H_
#define SECRETA_TESTS_ORACLE_ARE_ORACLE_H_

#include "common/status.h"
#include "core/context.h"
#include "core/results.h"
#include "data/dataset.h"
#include "query/query.h"

namespace secreta {
namespace oracle {

/// Number of records of `dataset` matching every clause of `query`.
/// NotFound for an unknown attribute; InvalidArgument for a range on a
/// non-numeric attribute.
Result<double> ExactCount(const Dataset& dataset, const CountQuery& query);

/// Expected count of `query` over the anonymized data, summed record by
/// record: a QI clause contributes the fraction of the record's generalized
/// node's leaves that match it; an item contributes 1/|covers| of the
/// record's first (smallest id) gen standing for it, 0 if none. Pass
/// nullptr for a side that was not anonymized (exact matching on that
/// side). `rel_context` may be null when no column is a QI; a relational
/// recoding without it is FailedPrecondition.
Result<double> EstimatedCount(const Dataset& dataset,
                              const RelationalContext* rel_context,
                              const CountQuery& query,
                              const RelationalRecoding* relational,
                              const TransactionRecoding* transaction);

}  // namespace oracle
}  // namespace secreta

#endif  // SECRETA_TESTS_ORACLE_ARE_ORACLE_H_
