// Published anonymized releases and the catalog that serves them.
//
// Publishing a dataset is the batch half of the serving story: the catalog
// runs the configured anonymization once, then freezes everything a COUNT
// needs into one immutable PublishedRelease — the dataset, its hierarchies
// and contexts, the recodings, a QueryEvaluator with its QueryIndex already
// built, the recoding-derived estimation caches, and a small LRU of recent
// answers. After Create returns, every structure is read-only, so any number
// of connection handlers answer queries concurrently with no lock on the hot
// path (the LRU has its own short mutex).
//
// Access levels map onto the two halves of the ARE machinery (the paper's
// utility metric): kDirect answers with the exact count over the original
// microdata, kAnonymized with the estimated count over the published
// recoding — the pair whose relative error ARE averages. An analyst tenant
// only ever sees the anonymized side.

#ifndef SECRETA_SERVE_CATALOG_H_
#define SECRETA_SERVE_CATALOG_H_

#include <cstdint>
#include <list>
#include <map>
#include <memory>
#include <optional>
#include <string>
#include <unordered_map>
#include <utility>
#include <vector>

#include "common/annotations.h"
#include "common/mutex.h"
#include "common/status.h"
#include "data/dataset.h"
#include "engine/anonymization_module.h"
#include "hierarchy/hierarchy_builder.h"
#include "obs/metrics_registry.h"
#include "query/query_evaluator.h"
#include "serve/session.h"

namespace secreta {

/// How to anonymize a dataset at publication time.
struct ReleaseOptions {
  AlgorithmConfig config;
  HierarchyBuildOptions hierarchy;
  /// Recent-answer LRU entries per release; 0 disables the cache.
  size_t answer_cache_capacity = 1024;
};

/// \brief One published anonymized release: self-owning, immutable, warm.
///
/// Self-owning means the release holds the dataset, hierarchies, contexts,
/// run result, and evaluator itself (heap-stable, creation-ordered), so a
/// shared_ptr<const PublishedRelease> is all a query handler needs — even
/// after the catalog replaced the release with a newer version.
class PublishedRelease {
 public:
  /// Anonymizes `dataset` per `options` and freezes the serving state.
  /// Expensive (one full anonymization run + index build); runs once per
  /// publication, never per query.
  ///
  /// SECRETA_DECLASSIFIES: the serving side's sanctioned privacy-boundary
  /// crossing. The raw `dataset` enters here, is anonymized by the engine
  /// (whose own crossing is BuildAnonymizedDataset in core/recoding.h), and
  /// only the recoded release plus direct-access query answers gated by
  /// AccessLevel ever leave. kDirect answers expose exact counts by design —
  /// that tier is the operator-authenticated oracle the paper's utility
  /// evaluation requires, not an accidental leak.
  SECRETA_DECLASSIFIES static Result<std::shared_ptr<const PublishedRelease>>
  Create(std::string name, uint64_t version, Dataset dataset,
         const ReleaseOptions& options);

  const std::string& name() const { return name_; }
  uint64_t version() const { return version_; }
  size_t num_records() const { return dataset_->num_records(); }
  /// Display label of the anonymization config (e.g. "Cluster+Apriori k=5").
  std::string config_label() const { return options_.config.Label(); }

  struct CountAnswer {
    double count = 0;
    bool cached = false;  ///< served from the answer LRU
  };

  /// Answers one COUNT at `access` level. Parses `query_line` (the workload
  /// file / wire format), binds it against the warm QueryIndex, and returns
  /// the exact count (kDirect) or the estimated count over the published
  /// recoding (kAnonymized). Thread-safe const hot path.
  Result<CountAnswer> CountLine(const std::string& query_line,
                                AccessLevel access) const;

  /// Same, for an already-parsed query (no answer-cache lookup).
  Result<double> Count(const CountQuery& query, AccessLevel access) const;

 private:
  PublishedRelease(std::string name, uint64_t version, Dataset dataset,
                   ReleaseOptions options);

  /// Builds hierarchies, contexts, recodings, evaluator, index, and caches.
  Status Initialize();

  /// Bumps the per-dataset hit/miss counters and refreshes the lifetime
  /// hit-ratio gauge.
  void RecordCacheLookup(bool hit) const;

  const std::string name_;
  const uint64_t version_;
  const ReleaseOptions options_;

  // Creation-ordered ownership chain: every later member may hold pointers
  // into earlier ones (contexts borrow dataset_ + hierarchies, the evaluator
  // borrows dataset_ + rel_context_). unique_ptr keeps the dataset address
  // stable while the release object itself is moved into its shared_ptr.
  std::unique_ptr<const Dataset> dataset_;
  std::vector<Hierarchy> column_hierarchies_;
  std::optional<Hierarchy> item_hierarchy_;
  std::optional<RelationalContext> rel_context_;
  std::optional<TransactionContext> tx_context_;
  RunResult run_;  // holds the published recodings
  std::optional<QueryEvaluator> evaluator_;
  RecodingCache recoding_cache_;

  // Per-dataset labeled metric handles (serve.cache.* {dataset=name}),
  // resolved once at publication so the query path never does a registry
  // lookup. Counters are shared across versions of the same dataset name.
  Counter* cache_hits_counter_ = nullptr;
  Counter* cache_misses_counter_ = nullptr;
  Gauge* cache_hit_ratio_gauge_ = nullptr;

  // Recent-answer LRU, keyed by (access, query line). The only mutable state
  // on the query path.
  mutable Mutex cache_mutex_;
  mutable std::list<std::pair<std::string, double>> lru_
      SECRETA_GUARDED_BY(cache_mutex_);
  mutable std::unordered_map<std::string,
                             std::list<std::pair<std::string, double>>::iterator>
      lru_index_ SECRETA_GUARDED_BY(cache_mutex_);
};

/// \brief Name → release map with versioned republication. Thread-safe.
///
/// Publish replaces any existing release under the same name (version bumps
/// monotonically); handlers that already hold the old shared_ptr finish
/// their queries against it undisturbed.
class DatasetCatalog {
 public:
  Result<std::shared_ptr<const PublishedRelease>> Publish(
      const std::string& name, Dataset dataset, const ReleaseOptions& options)
      SECRETA_EXCLUDES(mutex_);

  /// NotFound when nothing is published under `name`.
  Result<std::shared_ptr<const PublishedRelease>> Get(
      const std::string& name) const SECRETA_EXCLUDES(mutex_);

  /// All current releases, name order.
  std::vector<std::shared_ptr<const PublishedRelease>> List() const
      SECRETA_EXCLUDES(mutex_);

  size_t size() const SECRETA_EXCLUDES(mutex_);

 private:
  mutable Mutex mutex_;
  std::map<std::string, std::shared_ptr<const PublishedRelease>> releases_
      SECRETA_GUARDED_BY(mutex_);
  uint64_t next_version_ SECRETA_GUARDED_BY(mutex_) = 1;
};

}  // namespace secreta

#endif  // SECRETA_SERVE_CATALOG_H_
