// Row-by-row reference for the anonymized dataset: the builder that
// core/recoding.h's BuildAnonymizedDataset is checked against cell for cell.
//
// It writes each record's label strings (hierarchy labels of the recoded QI
// nodes, gen labels joined with spaces, pass-through values) and encodes
// them through Dataset::AddRow, so every id, dictionary order and numeric
// parse comes from the loader's own rules. The lint rule oracle-boundary
// (tools/lint/check_source.py) keeps core/recoding.h out of tests/oracle.

#ifndef SECRETA_TESTS_ORACLE_ANONYMIZED_DATASET_ORACLE_H_
#define SECRETA_TESTS_ORACLE_ANONYMIZED_DATASET_ORACLE_H_

#include "common/status.h"
#include "core/context.h"
#include "core/results.h"
#include "data/dataset.h"

namespace secreta {
namespace oracle {

/// The anonymized dataset built one record at a time through AddRow. Pass
/// nullptr for a side that is not recoded (its cells pass through). A
/// recoded numeric QI column becomes categorical.
Result<Dataset> AnonymizedDatasetByRows(const Dataset& original,
                                        const RelationalContext* rel_context,
                                        const RelationalRecoding* relational,
                                        const TransactionRecoding* transaction);

}  // namespace oracle
}  // namespace secreta

#endif  // SECRETA_TESTS_ORACLE_ANONYMIZED_DATASET_ORACLE_H_
