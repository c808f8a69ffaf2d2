#include "service/job_scheduler.h"

#include <algorithm>

#include "common/random.h"
#include "common/string_util.h"
#include "export/json_export.h"
#include "obs/metric_names.h"
#include "obs/metrics_registry.h"
#include "obs/trace.h"

namespace secreta {

namespace {

double ToSeconds(std::chrono::steady_clock::duration d) {
  return std::chrono::duration<double>(d).count();
}

}  // namespace

const char* JobStateToString(JobState state) {
  switch (state) {
    case JobState::kQueued:
      return "queued";
    case JobState::kRunning:
      return "running";
    case JobState::kDone:
      return "done";
    case JobState::kCancelled:
      return "cancelled";
    case JobState::kFailed:
      return "failed";
    case JobState::kTimedOut:
      return "timed-out";
  }
  return "?";
}

bool IsTerminalJobState(JobState state) {
  return state != JobState::kQueued && state != JobState::kRunning;
}

JobScheduler::JobScheduler(const SchedulerOptions& options)
    : options_(options), cache_(options.cache_capacity) {
  pool_ = std::make_unique<ThreadPool>(options.num_workers, "jobs");
  reaper_ = std::thread([this] { ReaperLoop(); });
}

JobScheduler::~JobScheduler() {
  {
    MutexLock lock(mutex_);
    shutdown_ = true;
    std::vector<std::shared_ptr<Job>> queued;
    queued.reserve(queue_.size());
    for (const QueueEntry& entry : queue_) queued.push_back(entry.job);
    queue_.clear();
    UpdateQueueGauges();
    for (const auto& job : queued) {
      job->token.Cancel();
      Finalize(job.get(), JobState::kCancelled,
               Status::Cancelled("scheduler shutdown"));
    }
    for (const auto& [id, job] : jobs_) {
      if (job->state == JobState::kRunning) job->token.Cancel();
      // Jobs parked in a retry backoff are kQueued but live outside queue_.
      if (job->retry_waiting && job->state == JobState::kQueued) {
        job->token.Cancel();
        Finalize(job.get(), JobState::kCancelled,
                 Status::Cancelled("scheduler shutdown"));
      }
    }
  }
  reaper_wake_.NotifyAll();
  // Joins the workers; leftover pool tasks find an empty queue and return.
  pool_.reset();
  if (reaper_.joinable()) reaper_.join();
}

Result<uint64_t> JobScheduler::Submit(const EngineInputs& inputs,
                                      const AlgorithmConfig& config,
                                      const Workload* workload,
                                      const JobOptions& options) {
  if (inputs.dataset == nullptr) {
    return Status::InvalidArgument("EngineInputs.dataset is required");
  }
  auto job = std::make_shared<Job>();
  job->label = config.Label();
  job->priority = options.priority;
  job->timeout_seconds = options.timeout_seconds;
  job->export_path = options.export_json_path;
  job->max_retries = options.max_retries;
  job->retry_initial_backoff = options.retry_initial_backoff_seconds;
  job->retry_max_backoff = options.retry_max_backoff_seconds;
  if (options.use_cache && options_.cache_capacity > 0) {
    uint64_t dataset_fp = options.dataset_fingerprint != 0
                              ? options.dataset_fingerprint
                              : DatasetFingerprint(*inputs.dataset);
    job->cache_key =
        RunCacheKey(config, dataset_fp, WorkloadFingerprint(workload));
    job->cacheable = true;
    if (std::shared_ptr<const EvaluationReport> hit =
            cache_.Lookup(job->cache_key)) {
      metrics_.IncrCacheHit();
      Status export_status;
      if (!job->export_path.empty()) {
        export_status =
            WriteJsonFile(EvaluationReportToJson(*hit), job->export_path);
      }
      MutexLock lock(mutex_);
      if (shutdown_) {
        return Status::FailedPrecondition("scheduler is shutting down");
      }
      job->id = next_id_++;
      job->submitted_at = Clock::now();
      job->from_cache = true;
      metrics_.IncrSubmitted();
      jobs_[job->id] = job;
      if (export_status.ok()) {
        job->report = std::move(hit);
        Finalize(job.get(), JobState::kDone, Status::OK());
      } else {
        Finalize(job.get(), JobState::kFailed, std::move(export_status));
      }
      return job->id;
    }
    metrics_.IncrCacheMiss();
  }
  EngineInputs captured = inputs;
  job->fn = [captured, config,
             workload](const CancellationToken& token) -> Result<EvaluationReport> {
    EngineInputs in = captured;
    in.cancel = &token;
    return EvaluateMethod(in, config, workload);
  };
  return Enqueue(std::move(job));
}

Result<uint64_t> JobScheduler::SubmitFn(JobFn fn, std::string label,
                                        const JobOptions& options) {
  if (!fn) return Status::InvalidArgument("SubmitFn requires a callable");
  auto job = std::make_shared<Job>();
  job->label = std::move(label);
  job->priority = options.priority;
  job->timeout_seconds = options.timeout_seconds;
  job->export_path = options.export_json_path;
  job->max_retries = options.max_retries;
  job->retry_initial_backoff = options.retry_initial_backoff_seconds;
  job->retry_max_backoff = options.retry_max_backoff_seconds;
  job->fn = std::move(fn);
  return Enqueue(std::move(job));
}

Result<uint64_t> JobScheduler::Enqueue(std::shared_ptr<Job> job) {
  MutexLock lock(mutex_);
  if (shutdown_) {
    return Status::FailedPrecondition("scheduler is shutting down");
  }
  if (queue_.size() >= options_.max_queue) {
    metrics_.IncrRejected();
    return Status::ResourceExhausted(StrFormat(
        "job queue full (%zu queued, max %zu)", queue_.size(),
        options_.max_queue));
  }
  job->id = next_id_++;
  job->seq = next_seq_++;
  job->submitted_at = Clock::now();
  if (job->timeout_seconds > 0) {
    job->has_deadline = true;
    job->deadline =
        job->submitted_at + std::chrono::duration_cast<Clock::duration>(
                                std::chrono::duration<double>(
                                    job->timeout_seconds));
  }
  metrics_.IncrSubmitted();
  jobs_[job->id] = job;
  queue_.insert(QueueEntry{job->priority, job->seq, job});
  UpdateQueueGauges();
  pool_->Submit([this] { RunNext(); });
  if (job->has_deadline) reaper_wake_.NotifyAll();
  return job->id;
}

void JobScheduler::RunNext() {
  std::shared_ptr<Job> job;
  {
    MutexLock lock(mutex_);
    // The queue may have shrunk since this pool task was enqueued (cancel,
    // queued-timeout, shutdown drain): one task per Submit is an upper
    // bound, not a 1:1 pairing.
    if (queue_.empty()) return;
    auto it = queue_.begin();
    job = it->job;
    queue_.erase(it);
    UpdateQueueGauges();
    Clock::time_point now = Clock::now();
    job->queue_seconds = ToSeconds(now - job->submitted_at);
    if (job->token.cancelled()) {
      Finalize(job.get(),
               job->timeout_fired ? JobState::kTimedOut : JobState::kCancelled,
               job->timeout_fired
                   ? Status::DeadlineExceeded("deadline expired in queue")
                   : Status::Cancelled("cancelled while queued"));
      return;
    }
    if (job->has_deadline && now >= job->deadline) {
      job->timeout_fired = true;
      job->token.Cancel();
      Finalize(job.get(), JobState::kTimedOut,
               Status::DeadlineExceeded("deadline expired in queue"));
      return;
    }
    job->state = JobState::kRunning;
    job->dispatch_order = ++dispatch_counter_;
    ++job->attempts;
    ++running_;
    metrics_.RecordQueueWait(job->queue_seconds);
  }
  Clock::time_point start = Clock::now();
  Result<EvaluationReport> result = [&]() -> Result<EvaluationReport> {
    // One span per attempt; retries are visible as separate "job.retry"
    // spans in the trace.
    ScopedSpan span(job->attempts > 1
                        ? StrFormat("job.retry #%d %s", job->attempts,
                                    job->label.c_str())
                        : "job.run " + job->label);
    return job->fn(job->token);
  }();
  double run_seconds = ToSeconds(Clock::now() - start);
  // Success-only export, outside the lock (file IO). Failure paths — and in
  // particular cancellation — never touch the export file.
  Status export_status;
  if (result.ok() && !job->export_path.empty()) {
    export_status = WriteJsonFile(EvaluationReportToJson(result.value()),
                                  job->export_path);
  }
  MutexLock lock(mutex_);
  job->run_seconds = run_seconds;
  metrics_.RecordExecution(run_seconds);
  if (result.ok() && export_status.ok()) {
    job->report =
        std::make_shared<const EvaluationReport>(std::move(result).value());
    if (job->cacheable) cache_.Insert(job->cache_key, job->report);
    if (job->attempts > 1) {
      MetricsRegistry::Global()
          .counter(metric_names::kRetrySucceeded)
          ->Increment();
    }
    Finalize(job.get(), JobState::kDone, Status::OK());
  } else if (!result.ok()) {
    const Status& st = result.status();
    if (st.code() == StatusCode::kCancelled && job->timeout_fired) {
      Finalize(job.get(), JobState::kTimedOut,
               Status::DeadlineExceeded(st.message()));
    } else if (st.code() == StatusCode::kCancelled) {
      Finalize(job.get(), JobState::kCancelled, st);
    } else if (st.code() == StatusCode::kDeadlineExceeded) {
      Finalize(job.get(), JobState::kTimedOut, st);
    } else if (st.code() == StatusCode::kResourceExhausted &&
               job->attempts <= job->max_retries && !shutdown_ &&
               !job->token.cancelled()) {
      ScheduleRetry(job, st);
    } else {
      if (st.code() == StatusCode::kResourceExhausted &&
          job->max_retries > 0) {
        MetricsRegistry::Global()
            .counter(metric_names::kRetryExhausted)
            ->Increment();
      }
      Finalize(job.get(), JobState::kFailed, st);
    }
  } else {
    Finalize(job.get(), JobState::kFailed, std::move(export_status));
  }
}

void JobScheduler::ScheduleRetry(const std::shared_ptr<Job>& job,
                                 const Status& cause) {
  Clock::time_point now = Clock::now();
  // attempts has already been incremented for the failed attempt: the first
  // retry (attempts == 1) waits the initial backoff, each further one
  // doubles it up to the cap.
  double backoff = job->retry_initial_backoff;
  for (int i = 1; i < job->attempts; ++i) backoff *= 2;
  backoff = std::min(backoff, job->retry_max_backoff);
  // Deterministic ±15% jitter: decorrelates retry storms across jobs while
  // keeping any single run reproducible.
  Rng rng(job->id * 0x9e3779b97f4a7c15ULL +
          static_cast<uint64_t>(job->attempts));
  backoff *= 0.85 + 0.3 * rng.UniformDouble(0.0, 1.0);
  Clock::duration delay = std::chrono::duration_cast<Clock::duration>(
      std::chrono::duration<double>(backoff));
  if (job->has_deadline && now + delay >= job->deadline) {
    // Deadline-aware: waiting out the backoff would blow the deadline
    // anyway; give up now and surface the deadline, not the transient.
    job->timeout_fired = true;
    job->token.Cancel();
    MetricsRegistry::Global()
        .counter(metric_names::kRetryDeadlineAbandoned)
        ->Increment();
    Finalize(job.get(), JobState::kTimedOut,
             Status::DeadlineExceeded(StrFormat(
                 "deadline would expire during the %.3fs backoff after "
                 "attempt %d (%s)",
                 backoff, job->attempts, cause.message().c_str())));
    return;
  }
  --running_;
  job->state = JobState::kQueued;
  job->status = Status::OK();
  job->retry_waiting = true;
  job->retry_at = now + delay;
  ++retry_waiting_;
  MetricsRegistry::Global().counter(metric_names::kRetryAttempts)->Increment();
  MetricsRegistry::Global()
      .histogram(metric_names::kRetryBackoffSeconds)
      ->Record(backoff);
  reaper_wake_.NotifyAll();
}

void JobScheduler::Finalize(Job* job, JobState state, Status status) {
  if (job->state == JobState::kRunning) --running_;
  if (job->retry_waiting) {
    job->retry_waiting = false;
    --retry_waiting_;
  }
  job->state = state;
  job->status = std::move(status);
  switch (state) {
    case JobState::kDone:
      metrics_.IncrCompleted();
      break;
    case JobState::kCancelled:
      metrics_.IncrCancelled();
      break;
    case JobState::kFailed:
      metrics_.IncrFailed();
      break;
    case JobState::kTimedOut:
      metrics_.IncrTimedOut();
      break;
    case JobState::kQueued:
    case JobState::kRunning:
      break;  // not terminal; never passed here
  }
  job_changed_.NotifyAll();
}

void JobScheduler::ReaperLoop() {
  MutexLock lock(mutex_);
  while (!shutdown_) {
    bool have_wake = false;
    Clock::time_point next{};
    for (const auto& [id, job] : jobs_) {
      if (IsTerminalJobState(job->state)) continue;
      if (job->has_deadline && !job->timeout_fired &&
          (!have_wake || job->deadline < next)) {
        next = job->deadline;
        have_wake = true;
      }
      if (job->retry_waiting && (!have_wake || job->retry_at < next)) {
        next = job->retry_at;
        have_wake = true;
      }
    }
    if (!have_wake) {
      reaper_wake_.Wait(lock);
      continue;
    }
    reaper_wake_.WaitUntil(lock, next);
    if (shutdown_) break;
    Clock::time_point now = Clock::now();
    // Deadlines first: a deadline that passed during a retry backoff must
    // time the job out, not grant it another attempt.
    for (const auto& [id, job] : jobs_) {
      if (IsTerminalJobState(job->state) || !job->has_deadline ||
          job->timeout_fired || now < job->deadline) {
        continue;
      }
      job->timeout_fired = true;
      job->token.Cancel();
      if (job->state == JobState::kQueued) {
        queue_.erase(QueueEntry{job->priority, job->seq, nullptr});
        UpdateQueueGauges();
        job->queue_seconds = ToSeconds(now - job->submitted_at);
        Finalize(job.get(), JobState::kTimedOut,
                 Status::DeadlineExceeded(StrFormat(
                     "deadline of %.3fs expired while queued",
                     job->timeout_seconds)));
      }
      // Running jobs finalize in RunNext when the engine unwinds with
      // Status::Cancelled at its next phase boundary.
    }
    // Re-queue retries whose backoff has elapsed.
    for (const auto& [id, job] : jobs_) {
      if (!job->retry_waiting || job->state != JobState::kQueued ||
          now < job->retry_at) {
        continue;
      }
      if (job->token.cancelled()) {
        Finalize(job.get(),
                 job->timeout_fired ? JobState::kTimedOut
                                    : JobState::kCancelled,
                 job->timeout_fired
                     ? Status::DeadlineExceeded("deadline expired in backoff")
                     : Status::Cancelled("cancelled during retry backoff"));
        continue;
      }
      job->retry_waiting = false;
      --retry_waiting_;
      job->seq = next_seq_++;
      queue_.insert(QueueEntry{job->priority, job->seq, job});
      pool_->Submit([this] { RunNext(); });
      MetricsRegistry::Global()
          .counter(metric_names::kRetryRequeued)
          ->Increment();
    }
    UpdateQueueGauges();
  }
}

void JobScheduler::UpdateQueueGauges() const {
  MetricsRegistry& metrics = MetricsRegistry::Global();
  metrics.gauge(metric_names::kJobsQueueDepth)
      ->Set(static_cast<double>(queue_.size()));
  double oldest = 0;
  if (!queue_.empty()) {
    Clock::time_point now = Clock::now();
    for (const QueueEntry& entry : queue_) {
      oldest = std::max(oldest, ToSeconds(now - entry.job->submitted_at));
    }
  }
  metrics.gauge(metric_names::kJobsQueueAgeSeconds)->Set(oldest);
}

JobInfo JobScheduler::Snapshot(const Job& job) const {
  JobInfo info;
  info.id = job.id;
  info.label = job.label;
  info.state = job.state;
  info.priority = job.priority;
  info.dispatch_order = job.dispatch_order;
  info.from_cache = job.from_cache;
  info.attempts = job.attempts;
  info.queue_seconds = job.queue_seconds;
  info.run_seconds = job.run_seconds;
  info.status = job.status;
  info.report = job.report;
  return info;
}

Result<JobInfo> JobScheduler::GetJob(uint64_t id) const {
  MutexLock lock(mutex_);
  auto it = jobs_.find(id);
  if (it == jobs_.end()) {
    return Status::NotFound(StrFormat("no job %llu",
                                      static_cast<unsigned long long>(id)));
  }
  return Snapshot(*it->second);
}

std::vector<JobInfo> JobScheduler::ListJobs() const {
  MutexLock lock(mutex_);
  std::vector<JobInfo> out;
  out.reserve(jobs_.size());
  for (const auto& [id, job] : jobs_) out.push_back(Snapshot(*job));
  std::sort(out.begin(), out.end(),
            [](const JobInfo& a, const JobInfo& b) { return a.id < b.id; });
  return out;
}

Status JobScheduler::CancelJob(uint64_t id) {
  MutexLock lock(mutex_);
  auto it = jobs_.find(id);
  if (it == jobs_.end()) {
    return Status::NotFound(StrFormat("no job %llu",
                                      static_cast<unsigned long long>(id)));
  }
  Job* job = it->second.get();
  if (IsTerminalJobState(job->state)) {
    return Status::FailedPrecondition(
        StrFormat("job %llu already %s",
                  static_cast<unsigned long long>(id),
                  JobStateToString(job->state)));
  }
  job->token.Cancel();
  if (job->state == JobState::kQueued) {
    queue_.erase(QueueEntry{job->priority, job->seq, nullptr});
    UpdateQueueGauges();
    job->queue_seconds = ToSeconds(Clock::now() - job->submitted_at);
    Finalize(job, JobState::kCancelled,
             Status::Cancelled("cancelled while queued"));
  }
  return Status::OK();
}

Result<JobInfo> JobScheduler::WaitJob(uint64_t id) {
  MutexLock lock(mutex_);
  auto it = jobs_.find(id);
  if (it == jobs_.end()) {
    return Status::NotFound(StrFormat("no job %llu",
                                      static_cast<unsigned long long>(id)));
  }
  std::shared_ptr<Job> job = it->second;
  while (!IsTerminalJobState(job->state)) job_changed_.Wait(lock);
  return Snapshot(*job);
}

void JobScheduler::WaitAll() {
  MutexLock lock(mutex_);
  while (!(queue_.empty() && running_ == 0 && retry_waiting_ == 0)) {
    job_changed_.Wait(lock);
  }
}

size_t JobScheduler::num_queued() const {
  MutexLock lock(mutex_);
  // Jobs parked in a retry backoff are queued, just not in queue_ yet.
  return queue_.size() + retry_waiting_;
}

size_t JobScheduler::num_running() const {
  MutexLock lock(mutex_);
  return running_;
}

}  // namespace secreta
