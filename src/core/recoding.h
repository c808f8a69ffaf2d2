// Turns structured recodings (hierarchy nodes / generalized items) into an
// exportable anonymized Dataset whose cells hold the generalized labels.

#ifndef SECRETA_CORE_RECODING_H_
#define SECRETA_CORE_RECODING_H_

#include "common/annotations.h"
#include "core/context.h"
#include "core/results.h"
#include "data/dataset.h"

namespace secreta {

/// \brief Materializes the anonymized dataset.
///
/// Relational QID cells are replaced by the labels of their recoded hierarchy
/// nodes (pass nullptr to keep originals); the transaction cell is replaced by
/// the labels of its generalized items (pass nullptr to keep originals).
/// Generalized QID columns become categorical in the output schema because
/// range labels are no longer parseable numbers.
///
/// The dataset is built from ids, and equals, cell for cell, the one that
/// AddRow would build from each record's label strings:
///  - A relational column's ids follow the first use of each trimmed
///    string, scanning records in order; two hierarchy nodes with the same
///    label share one id. A numeric column that passes through parses each
///    new string once and refuses a non-number with InvalidArgument.
///  - The item dictionary takes tokens in record order: the whitespace-split
///    tokens of each record's gen labels, or its original items when the
///    transaction side passes through. A label holding a space becomes
///    several items, and two gens with the same label become one. Each
///    record's item ids are then sorted and de-duplicated.
///  - So in a relational-only release a pass-through transaction cell lists
///    its items in first-use order within the dataset (within the shard for
///    a sharded run), not in the original dictionary's order.
///
/// InvalidArgument when a recoding's shape does not match `original`.
///
/// SECRETA_DECLASSIFIES: this is the anonymization engine's sanctioned
/// privacy-boundary crossing. QID cells leave as recoded hierarchy labels and
/// transaction cells as generalized items, both satisfying the algorithm's
/// configured guarantee (k-anonymity / k^m-anonymity — audited by
/// core/audit.*); columns the caller passes through un-recoded (sensitive
/// attributes, or a side not being anonymized) are outside the guarantee's
/// quasi-identifier scope by the model's definition, which is exactly the
/// paper's publication contract.
SECRETA_DECLASSIFIES Result<Dataset> BuildAnonymizedDataset(
    const Dataset& original, const RelationalContext* rel_context,
    const RelationalRecoding* relational,
    const TransactionRecoding* transaction);

/// Builds the identity relational recoding (every value at its leaf).
RelationalRecoding IdentityRecoding(const RelationalContext& context);

/// Applies a full-domain level vector (one level per QI position) to every
/// record: each leaf is replaced by its ancestor `levels[qi]` steps up.
RelationalRecoding ApplyFullDomainLevels(const RelationalContext& context,
                                         const std::vector<int>& levels);

/// Applies a full-subtree cut: `cut[qi]` is a set of hierarchy nodes; each
/// leaf is replaced by the unique cut node that is its ancestor-or-self.
/// Fails if some leaf is not covered by the cut.
Result<RelationalRecoding> ApplyCut(
    const RelationalContext& context,
    const std::vector<std::vector<NodeId>>& cut);

}  // namespace secreta

#endif  // SECRETA_CORE_RECODING_H_
