// Cluster-based relational anonymization (the relational phase of Poulis et
// al. [9]). Greedy k-member clustering: grow clusters of exactly >= k records
// by repeatedly adding the record whose inclusion minimizes the cluster's
// NCP; each cluster's QI values are generalized to the per-attribute LCA of
// its members. Produces many small equivalence classes, which is what the RT
// pipeline wants as its starting partition.

#ifndef SECRETA_ALGO_RELATIONAL_CLUSTER_H_
#define SECRETA_ALGO_RELATIONAL_CLUSTER_H_

#include "core/algorithm.h"

namespace secreta {

class ClusterAnonymizer : public RelationalAnonymizer {
 public:
  std::string name() const override { return "Cluster"; }

  Result<RelationalRecoding> Anonymize(const RelationalContext& context,
                                       const AnonParams& params) override;
};

}  // namespace secreta

#endif  // SECRETA_ALGO_RELATIONAL_CLUSTER_H_
