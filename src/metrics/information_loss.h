// Information-loss measures (paper refs [7], [12]):
//  - NCP/GCP for relational generalizations (Normalized Certainty Penalty and
//    its dataset-level aggregate, Xu et al. [12]),
//  - UL for transaction generalizations (utility loss, Loukides et al. [7],
//    normalized to [0,1]),
//  - discernibility and average-class-size metrics.

#ifndef SECRETA_METRICS_INFORMATION_LOSS_H_
#define SECRETA_METRICS_INFORMATION_LOSS_H_

#include <vector>

#include "core/context.h"
#include "core/equivalence.h"
#include "core/results.h"

namespace secreta {

/// NCP of one generalized value in [0,1]: for numeric hierarchies the covered
/// range over the domain range; otherwise (covered leaves - 1)/(|domain| - 1).
/// A leaf scores 0; the root scores 1 (when the domain has > 1 value).
double NodeNcp(const Hierarchy& hierarchy, NodeId node);

/// NodeNcp of every node of `hierarchy`, indexed by node id: the table that
/// cost scans (Cluster, TopDown, the RT mergers) read per candidate instead
/// of calling NodeNcp.
std::vector<double> NodeNcpTable(const Hierarchy& hierarchy);

/// Generalized Certainty Penalty of a relational recoding: the mean NCP over
/// all records and QI attributes, in [0,1].
double RecodingGcp(const RelationalContext& context,
                   const RelationalRecoding& recoding);

/// Mean NCP per QI attribute (one value per QI position, each in [0,1]);
/// RecodingGcp is their mean. Drives the per-attribute loss bars of the
/// Evaluation-mode visualizations.
std::vector<double> RecodingGcpPerAttribute(const RelationalContext& context,
                                            const RelationalRecoding& recoding);

/// NCP that generalizing the multiset of leaves `leaves` to their LCA would
/// incur in `hierarchy` (used by cluster-style algorithms when scoring a
/// candidate merge).
double LcaNcp(const Hierarchy& hierarchy, const std::vector<NodeId>& leaves);

/// \brief Transaction utility loss in [0,1] (normalized UL of [7]).
///
/// Every original item occurrence pays (covered-1)/(|I|-1) for the
/// generalized item that replaced it and 1 if it was suppressed; UL is the
/// mean over all occurrences. `original` must be aligned with
/// `recoding.records` (the subset's transactions, in subset order).
double TransactionUl(const TransactionRecoding& recoding,
                     const std::vector<std::vector<ItemId>>& original,
                     size_t num_items);

/// Per-record variant of TransactionUl (the loss paid by record `row` of the
/// recoding); used by the RT mergers' per-cluster decisions.
double RecordUl(const TransactionRecoding& recoding, size_t row,
                const std::vector<ItemId>& original, size_t num_items);

/// Discernibility metric: sum over equivalence classes of |EC|^2.
double Discernibility(const EquivalenceClasses& classes);

/// Normalized average equivalence-class size C_avg = n / (#classes * k).
double AverageClassSize(const EquivalenceClasses& classes, int k);

}  // namespace secreta

#endif  // SECRETA_METRICS_INFORMATION_LOSS_H_
