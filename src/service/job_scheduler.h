// The job service: turns the one-shot, blocking engine entry points into a
// long-running, multi-client execution core for batch anonymize/evaluate
// runs (the harness layer the SECRETA Fig. 1 architecture fans runs out
// over). Its callers are the CLI's `submit`, example_jobs_demo and
// service_bench; the online query server (src/serve/) answers COUNTs on its
// own connection handlers and never submits here. A JobScheduler owns
//   - a priority FIFO queue layered over the common ThreadPool (higher
//     priority first, FIFO within a priority),
//   - bounded-queue backpressure (Submit fails with
//     Status::ResourceExhausted when the queue is full),
//   - per-job deadline enforcement (a reaper thread fires the job's
//     CancellationToken at the deadline; the job lands in state kTimedOut
//     with Status::DeadlineExceeded),
//   - cooperative cancellation (CancelJob fires the token; running engine
//     code unwinds at its next phase boundary),
//   - a content-addressed ResultCache (identical submissions replay the
//     cached report without executing),
//   - retry with exponential backoff for retryable failures
//     (Status::ResourceExhausted — transient overload and injected
//     transients): a failed attempt re-queues after a jittered,
//     deadline-aware delay until the attempt cap is reached (retry.*
//     counters land in the global MetricsRegistry), and
//   - a ServiceMetrics registry (lifecycle counters + queue-wait/execution
//     latency histograms).

#ifndef SECRETA_SERVICE_JOB_SCHEDULER_H_
#define SECRETA_SERVICE_JOB_SCHEDULER_H_

#include <chrono>
#include <cstdint>
#include <functional>
#include <memory>
#include <set>
#include <string>
#include <thread>
#include <unordered_map>
#include <vector>

#include "common/annotations.h"
#include "common/cancellation.h"
#include "common/mutex.h"
#include "common/thread_pool.h"
#include "engine/evaluator.h"
#include "service/result_cache.h"
#include "service/service_metrics.h"

namespace secreta {

/// Lifecycle of a job. Queued/Running are live; the other states are
/// terminal and never change again.
enum class JobState {
  kQueued,
  kRunning,
  kDone,
  kCancelled,
  kFailed,
  kTimedOut,
};

const char* JobStateToString(JobState state);
bool IsTerminalJobState(JobState state);

/// Per-job knobs.
struct JobOptions {
  /// Higher runs first; ties dispatch FIFO (submission order).
  int priority = 0;
  /// Wall-clock budget from submission; 0 = none. Enforced cooperatively:
  /// the deadline fires the job's cancellation token, and the engine unwinds
  /// at its next phase boundary.
  double timeout_seconds = 0;
  /// Serve/populate the ResultCache for this job (engine jobs only).
  bool use_cache = true;
  /// Precomputed DatasetFingerprint() of the submitted inputs' dataset;
  /// 0 = let the scheduler compute it (O(dataset) per submission).
  uint64_t dataset_fingerprint = 0;
  /// When non-empty, the full report JSON is written here on success — and
  /// only on success: a cancelled, failed, or timed-out job never leaves a
  /// partially-written export behind.
  std::string export_json_path;
  /// Additional attempts after a retryable failure (ResourceExhausted);
  /// 0 = fail fast. Retries re-enter the queue (skipping the backpressure
  /// check — the job was already admitted) after the backoff below.
  int max_retries = 0;
  /// Backoff before retry attempt N (N >= 2): initial * 2^(N-2), capped at
  /// the max, then scaled by a deterministic ±15% jitter derived from the
  /// job id — reproducible, but uncorrelated across jobs. A job whose
  /// deadline would expire during the backoff gives up immediately as
  /// kTimedOut instead of waiting.
  double retry_initial_backoff_seconds = 0.05;
  double retry_max_backoff_seconds = 2.0;
};

/// Snapshot of one job, safe to hold after the scheduler moved on.
struct JobInfo {
  uint64_t id = 0;
  std::string label;
  JobState state = JobState::kQueued;
  int priority = 0;
  /// 1-based order in which the job started executing; 0 = never dispatched
  /// (still queued, served from cache, or cancelled/timed out while queued).
  uint64_t dispatch_order = 0;
  bool from_cache = false;
  /// Executed attempts so far (1 for a job that never retried; 0 while
  /// queued or when served from cache).
  int attempts = 0;
  double queue_seconds = 0;  ///< submission -> dispatch
  double run_seconds = 0;    ///< dispatch -> completion
  /// Terminal outcome (OK for kDone; Cancelled / DeadlineExceeded / the
  /// engine error otherwise). OK while the job is still live.
  Status status;
  /// The completed report (kDone only). Shared with the cache: bit-identical
  /// replay for cache hits.
  std::shared_ptr<const EvaluationReport> report;
};

/// Scheduler-wide configuration.
struct SchedulerOptions {
  /// Concurrent workers (clamped to >= 1, the ThreadPool contract).
  size_t num_workers = 2;
  /// Maximum jobs waiting in the queue (running jobs excluded). Submissions
  /// beyond this are rejected with Status::ResourceExhausted.
  size_t max_queue = 64;
  /// ResultCache capacity in entries; 0 disables caching.
  size_t cache_capacity = 128;
};

/// \brief Priority job queue + workers + cache + metrics. Thread-safe.
///
/// Engine jobs submitted via Submit() capture EngineInputs by value: the
/// pointed-to dataset, contexts, policies, and workload must stay alive and
/// unmodified until the job reaches a terminal state.
class JobScheduler {
 public:
  /// A generic unit of work. Receives the job's cancellation token; expected
  /// to poll it and return Status::Cancelled when it fires.
  using JobFn =
      std::function<Result<EvaluationReport>(const CancellationToken&)>;

  explicit JobScheduler(const SchedulerOptions& options = {});
  /// Cancels every queued job, fires the tokens of running jobs, and waits
  /// for the workers to drain before returning.
  ~JobScheduler();

  JobScheduler(const JobScheduler&) = delete;
  JobScheduler& operator=(const JobScheduler&) = delete;

  /// Submits one evaluation run. Returns the job id, or ResourceExhausted
  /// under backpressure. A cache hit completes the job immediately (state
  /// kDone, from_cache=true) without consuming a queue slot.
  Result<uint64_t> Submit(const EngineInputs& inputs,
                          const AlgorithmConfig& config,
                          const Workload* workload,
                          const JobOptions& options = {})
      SECRETA_EXCLUDES(mutex_);

  /// Submits an arbitrary work item (never cached). The scheduler machinery
  /// — priorities, backpressure, deadlines, cancellation, metrics — applies
  /// unchanged; this is also the seam tests use to inject controllable jobs.
  Result<uint64_t> SubmitFn(JobFn fn, std::string label,
                            const JobOptions& options = {})
      SECRETA_EXCLUDES(mutex_);

  /// Snapshot of one job.
  Result<JobInfo> GetJob(uint64_t id) const SECRETA_EXCLUDES(mutex_);

  /// Snapshots of every job this scheduler has accepted, in id order.
  std::vector<JobInfo> ListJobs() const SECRETA_EXCLUDES(mutex_);

  /// Requests cancellation: a queued job is removed and finalized as
  /// kCancelled immediately; a running job's token is fired and the job
  /// finalizes when the work unwinds (within one engine phase boundary).
  /// NotFound for unknown ids, FailedPrecondition for finished jobs.
  Status CancelJob(uint64_t id) SECRETA_EXCLUDES(mutex_);

  /// Blocks until the job is terminal; returns its final snapshot.
  Result<JobInfo> WaitJob(uint64_t id) SECRETA_EXCLUDES(mutex_);

  /// Blocks until no job is queued or running.
  void WaitAll() SECRETA_EXCLUDES(mutex_);

  /// Live-job counts (snapshots).
  size_t num_queued() const SECRETA_EXCLUDES(mutex_);
  size_t num_running() const SECRETA_EXCLUDES(mutex_);

  ServiceMetricsSnapshot MetricsSnapshot() const { return metrics_.Snapshot(); }
  const ResultCache& cache() const { return cache_; }
  const SchedulerOptions& options() const { return options_; }

 private:
  using Clock = std::chrono::steady_clock;

  struct Job {
    uint64_t id = 0;
    std::string label;
    JobState state = JobState::kQueued;
    int priority = 0;
    uint64_t seq = 0;  // FIFO tiebreaker within a priority
    JobFn fn;
    CancellationToken token;
    bool timeout_fired = false;  // token fired by the deadline reaper
    bool cacheable = false;
    uint64_t cache_key = 0;
    std::string export_path;
    double timeout_seconds = 0;
    bool has_deadline = false;
    Clock::time_point deadline{};
    Clock::time_point submitted_at{};
    int max_retries = 0;
    double retry_initial_backoff = 0;
    double retry_max_backoff = 0;
    int attempts = 0;            // executed attempts
    bool retry_waiting = false;  // kQueued, parked until retry_at
    Clock::time_point retry_at{};
    uint64_t dispatch_order = 0;
    bool from_cache = false;
    double queue_seconds = 0;
    double run_seconds = 0;
    Status status;
    std::shared_ptr<const EvaluationReport> report;
  };

  struct QueueEntry {
    int priority;
    uint64_t seq;
    std::shared_ptr<Job> job;
    bool operator<(const QueueEntry& other) const {
      if (priority != other.priority) return priority > other.priority;
      return seq < other.seq;
    }
  };

  Result<uint64_t> Enqueue(std::shared_ptr<Job> job) SECRETA_EXCLUDES(mutex_);
  /// One worker turn: picks the best queued job and runs it to completion.
  void RunNext() SECRETA_EXCLUDES(mutex_);
  /// Parks a job that failed retryably until its backoff elapses (the reaper
  /// re-queues it), or times it out when the deadline would expire first.
  /// The job must be kRunning.
  void ScheduleRetry(const std::shared_ptr<Job>& job, const Status& cause)
      SECRETA_REQUIRES(mutex_);
  /// Marks a live job terminal and wakes waiters.
  void Finalize(Job* job, JobState state, Status status)
      SECRETA_REQUIRES(mutex_);
  void ReaperLoop() SECRETA_EXCLUDES(mutex_);
  /// Copies one job's state; the job is owned by jobs_, hence the lock.
  JobInfo Snapshot(const Job& job) const SECRETA_REQUIRES(mutex_);
  /// Refreshes the jobs.queue_depth / jobs.queue_age_seconds gauges; called
  /// wherever queue_ changes and on every reaper pass so the age keeps
  /// advancing while a job sits queued.
  void UpdateQueueGauges() const SECRETA_REQUIRES(mutex_);

  const SchedulerOptions options_;
  ServiceMetrics metrics_;
  ResultCache cache_;

  mutable Mutex mutex_;
  CondVar job_changed_;  // job reached a terminal state
  CondVar reaper_wake_;  // new deadline / shutdown
  std::unordered_map<uint64_t, std::shared_ptr<Job>> jobs_
      SECRETA_GUARDED_BY(mutex_);
  std::set<QueueEntry> queue_ SECRETA_GUARDED_BY(mutex_);
  uint64_t next_id_ SECRETA_GUARDED_BY(mutex_) = 1;
  uint64_t next_seq_ SECRETA_GUARDED_BY(mutex_) = 1;
  uint64_t dispatch_counter_ SECRETA_GUARDED_BY(mutex_) = 0;
  size_t running_ SECRETA_GUARDED_BY(mutex_) = 0;
  // Jobs parked in a retry backoff.
  size_t retry_waiting_ SECRETA_GUARDED_BY(mutex_) = 0;
  bool shutdown_ SECRETA_GUARDED_BY(mutex_) = false;

  std::thread reaper_;
  // Declared last: destroyed (joined) first, while the state above is alive.
  std::unique_ptr<ThreadPool> pool_;
};

}  // namespace secreta

#endif  // SECRETA_SERVICE_JOB_SCHEDULER_H_
