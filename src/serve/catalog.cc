#include "serve/catalog.h"

#include <utility>

#include "common/string_util.h"
#include "kernels/kernels.h"
#include "obs/metric_names.h"
#include "obs/metrics_registry.h"
#include "obs/trace.h"

namespace secreta {

PublishedRelease::PublishedRelease(std::string name, uint64_t version,
                                   Dataset dataset, ReleaseOptions options)
    : name_(std::move(name)),
      version_(version),
      options_(std::move(options)),
      dataset_(std::make_unique<const Dataset>(std::move(dataset))) {}

Status PublishedRelease::Initialize() {
  SECRETA_TRACE_SPAN("serve.publish");
  const AnonMode mode = options_.config.mode;
  const bool relational_side =
      mode == AnonMode::kRelational || mode == AnonMode::kRt;
  const bool transaction_side =
      mode == AnonMode::kTransaction || mode == AnonMode::kRt;

  if (relational_side) {
    SECRETA_ASSIGN_OR_RETURN(
        column_hierarchies_,
        BuildAllColumnHierarchies(*dataset_, options_.hierarchy));
    SECRETA_ASSIGN_OR_RETURN(
        RelationalContext rel,
        RelationalContext::Create(*dataset_, column_hierarchies_));
    rel_context_.emplace(std::move(rel));
  }
  if (transaction_side) {
    SECRETA_ASSIGN_OR_RETURN(Hierarchy item_h,
                             BuildItemHierarchy(*dataset_, options_.hierarchy));
    item_hierarchy_.emplace(std::move(item_h));
    SECRETA_ASSIGN_OR_RETURN(
        TransactionContext tx,
        TransactionContext::Create(*dataset_, &*item_hierarchy_));
    tx_context_.emplace(std::move(tx));
  }

  EngineInputs inputs;
  inputs.dataset = dataset_.get();
  inputs.relational = rel_context_ ? &*rel_context_ : nullptr;
  inputs.transaction = tx_context_ ? &*tx_context_ : nullptr;
  SECRETA_ASSIGN_OR_RETURN(run_, RunAnonymization(inputs, options_.config));

  SECRETA_ASSIGN_OR_RETURN(
      QueryEvaluator evaluator,
      QueryEvaluator::Create(*dataset_,
                             rel_context_ ? &*rel_context_ : nullptr));
  evaluator_.emplace(std::move(evaluator));
  SECRETA_ASSIGN_OR_RETURN(
      recoding_cache_,
      evaluator_->BuildRecodingCache(
          run_.relational ? &*run_.relational : nullptr,
          run_.transaction ? &*run_.transaction : nullptr));

  MetricsRegistry& metrics = MetricsRegistry::Global();
  const MetricLabels labels = {{"dataset", name_}};
  cache_hits_counter_ = metrics.counter(metric_names::kServeCacheHits, labels);
  cache_misses_counter_ =
      metrics.counter(metric_names::kServeCacheMisses, labels);
  cache_hit_ratio_gauge_ =
      metrics.gauge(metric_names::kServeCacheHitRatio, labels);
  return Status::OK();
}

Result<std::shared_ptr<const PublishedRelease>> PublishedRelease::Create(
    std::string name, uint64_t version, Dataset dataset,
    const ReleaseOptions& options) {
  if (name.empty()) {
    return Status::InvalidArgument("release name must be non-empty");
  }
  if (dataset.num_records() == 0) {
    return Status::InvalidArgument("cannot publish an empty dataset");
  }
  // Not make_shared: the constructor is private and the heap address must be
  // final before Initialize wires up the internal pointer chain.
  std::shared_ptr<PublishedRelease> release(new PublishedRelease(
      std::move(name), version, std::move(dataset), options));
  SECRETA_RETURN_IF_ERROR(release->Initialize());
  return std::shared_ptr<const PublishedRelease>(std::move(release));
}

Result<double> PublishedRelease::Count(const CountQuery& query,
                                       AccessLevel access) const {
  SECRETA_TRACE_SPAN("serve.count");
  Workload workload(std::vector<CountQuery>{query});
  SECRETA_ASSIGN_OR_RETURN(BoundWorkload bound,
                           evaluator_->BindWorkload(workload));
  if (access == AccessLevel::kDirect) {
    return bound.exact_count(0);
  }
  SECRETA_ASSIGN_OR_RETURN(
      AreReport report,
      evaluator_->Are(bound, run_.relational ? &*run_.relational : nullptr,
                      run_.transaction ? &*run_.transaction : nullptr,
                      recoding_cache_));
  return report.estimated[0];
}

void PublishedRelease::RecordCacheLookup(bool hit) const {
  (hit ? cache_hits_counter_ : cache_misses_counter_)->Increment();
  const double hits = static_cast<double>(cache_hits_counter_->value());
  const double total =
      hits + static_cast<double>(cache_misses_counter_->value());
  cache_hit_ratio_gauge_->Set(total == 0 ? 0 : hits / total);
}

Result<PublishedRelease::CountAnswer> PublishedRelease::CountLine(
    const std::string& query_line, AccessLevel access) const {
  // Appended, not formatted: a query line may hold a NUL (a wire query's
  // "\u0000" decodes to one), and a %s would cut the key there.
  std::string key = AccessLevelToString(access);
  key += '\x1f';
  key += query_line;
  if (options_.answer_cache_capacity > 0) {
    MutexLock lock(cache_mutex_);
    auto it = lru_index_.find(key);
    if (it != lru_index_.end()) {
      lru_.splice(lru_.begin(), lru_, it->second);
      RecordCacheLookup(/*hit=*/true);
      return CountAnswer{it->second->second, /*cached=*/true};
    }
  }
  RecordCacheLookup(/*hit=*/false);

  SECRETA_ASSIGN_OR_RETURN(CountQuery query, CountQuery::Parse(query_line));
  SECRETA_ASSIGN_OR_RETURN(double count, Count(query, access));

  if (options_.answer_cache_capacity > 0) {
    MutexLock lock(cache_mutex_);
    auto it = lru_index_.find(key);
    if (it == lru_index_.end()) {
      lru_.emplace_front(key, count);
      lru_index_.emplace(key, lru_.begin());
      while (lru_.size() > options_.answer_cache_capacity) {
        lru_index_.erase(lru_.back().first);
        lru_.pop_back();
      }
    }
  }
  return CountAnswer{count, /*cached=*/false};
}

Result<std::shared_ptr<const PublishedRelease>> DatasetCatalog::Publish(
    const std::string& name, Dataset dataset, const ReleaseOptions& options) {
  uint64_t version;
  {
    MutexLock lock(mutex_);
    version = next_version_++;
  }
  // Anonymization runs outside the catalog lock: a slow publication must not
  // block Get/List on the query path.
  SECRETA_ASSIGN_OR_RETURN(
      std::shared_ptr<const PublishedRelease> release,
      PublishedRelease::Create(name, version, std::move(dataset), options));
  {
    MutexLock lock(mutex_);
    releases_[name] = release;
    MetricsRegistry::Global()
        .gauge(metric_names::kServeCatalogReleases)
        ->Set(static_cast<double>(releases_.size()));
    // Kernel tier (enum value; TierName order), for the serve dashboards.
    MetricsRegistry::Global()
        .gauge(metric_names::kServeKernelsTier)
        ->Set(static_cast<double>(kernels::ActiveTier()));
  }
  MetricsRegistry::Global()
      .counter(metric_names::kServeCatalogPublished)
      ->Increment();
  return release;
}

Result<std::shared_ptr<const PublishedRelease>> DatasetCatalog::Get(
    const std::string& name) const {
  MutexLock lock(mutex_);
  auto it = releases_.find(name);
  if (it == releases_.end()) {
    return Status::NotFound(
        StrFormat("no published dataset named \"%s\"", name.c_str()));
  }
  return it->second;
}

std::vector<std::shared_ptr<const PublishedRelease>> DatasetCatalog::List()
    const {
  MutexLock lock(mutex_);
  std::vector<std::shared_ptr<const PublishedRelease>> out;
  out.reserve(releases_.size());
  for (const auto& [name, release] : releases_) out.push_back(release);
  return out;
}

size_t DatasetCatalog::size() const {
  MutexLock lock(mutex_);
  return releases_.size();
}

}  // namespace secreta
