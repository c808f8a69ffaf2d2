// Central registry of every metric family name recorded from src/. A lint
// rule (tools/lint/check_source.py, rule "metric-name") forbids passing a
// string literal to MetricsRegistry::counter/gauge/histogram anywhere else
// under src/, so the full set of families — and therefore the label
// cardinality a deployment can emit — is auditable in this one file.
//
// Conventions: families are dot-separated lowercase ("serve.requests");
// label keys are listed next to each family. Durations are histograms with
// a "_seconds" suffix; monotonic counts have no suffix (the Prometheus
// writer appends "_total"); gauges are instantaneous values.

#ifndef SECRETA_OBS_METRIC_NAMES_H_
#define SECRETA_OBS_METRIC_NAMES_H_

namespace secreta {
namespace metric_names {

// --- serve: query server (src/serve/server.cc) -----------------------------
/// Frames processed, total (unlabeled) and per {tenant, dataset, code} for
/// COUNT requests — code is "ok" or a StatusCode name.
inline constexpr char kServeRequests[] = "serve.requests";
inline constexpr char kServeConnections[] = "serve.connections";
inline constexpr char kServeActiveConnections[] = "serve.active_connections";
inline constexpr char kServeRejectedBusy[] = "serve.rejected_busy";
inline constexpr char kServeAcceptErrors[] = "serve.accept_errors";
inline constexpr char kServeReadErrors[] = "serve.read_errors";
inline constexpr char kServeBadRequests[] = "serve.bad_requests";
inline constexpr char kServeAuthFailures[] = "serve.auth_failures";
inline constexpr char kServeRequestErrors[] = "serve.request_errors";
inline constexpr char kServeWriteErrors[] = "serve.write_errors";
/// End-to-end frame handling latency, all ops, unlabeled.
inline constexpr char kServeRequestSeconds[] = "serve.request_seconds";
/// COUNT latency per {tenant, dataset}.
inline constexpr char kServeCountSeconds[] = "serve.count_seconds";
/// COUNTs that crossed the slow-query threshold, per {tenant, dataset}.
inline constexpr char kServeSlowQueries[] = "serve.slow_queries";

// --- serve.admission: COUNT quota and deadline (src/serve/server.cc) -------
inline constexpr char kAdmissionQuotaRejected[] =
    "serve.admission.quota_rejected";
inline constexpr char kAdmissionAdmitted[] = "serve.admission.admitted";
inline constexpr char kAdmissionDeadlineExceeded[] =
    "serve.admission.deadline_exceeded";

// --- serve.catalog / serve.cache: published releases (src/serve/catalog.cc)
inline constexpr char kServeCatalogReleases[] = "serve.catalog.releases";
inline constexpr char kServeCatalogPublished[] = "serve.catalog.published";
inline constexpr char kServeKernelsTier[] = "serve.kernels.tier";
/// Answer-cache lookups per {dataset}.
inline constexpr char kServeCacheHits[] = "serve.cache.hits";
inline constexpr char kServeCacheMisses[] = "serve.cache.misses";
/// Lifetime hit fraction per {dataset}, 0..1.
inline constexpr char kServeCacheHitRatio[] = "serve.cache.hit_ratio";

// --- obs: telemetry about the telemetry (src/obs/trace_tail.cc) ------------
inline constexpr char kTraceTailSeen[] = "obs.trace_tail.seen";
inline constexpr char kTraceTailPinned[] = "obs.trace_tail.pinned";
inline constexpr char kTraceTailEvicted[] = "obs.trace_tail.evicted";
inline constexpr char kSlowQueryLogRecords[] = "obs.slow_query_log.records";

// --- jobs / job / result_cache: job service (src/service/) -----------------
inline constexpr char kJobsSubmitted[] = "jobs.submitted";
inline constexpr char kJobsCompleted[] = "jobs.completed";
inline constexpr char kJobsCancelled[] = "jobs.cancelled";
inline constexpr char kJobsFailed[] = "jobs.failed";
inline constexpr char kJobsTimedOut[] = "jobs.timed_out";
inline constexpr char kJobsRejected[] = "jobs.rejected";
/// Gauges maintained by the scheduler: current queue length and age in
/// seconds of the oldest queued job (0 when idle).
inline constexpr char kJobsQueueDepth[] = "jobs.queue_depth";
inline constexpr char kJobsQueueAgeSeconds[] = "jobs.queue_age_seconds";
inline constexpr char kResultCacheHits[] = "result_cache.hits";
inline constexpr char kResultCacheMisses[] = "result_cache.misses";
inline constexpr char kJobQueueWaitSeconds[] = "job.queue_wait_seconds";
inline constexpr char kJobExecutionSeconds[] = "job.execution_seconds";

// --- retry: scheduler retry policy (src/service/job_scheduler.cc) ----------
inline constexpr char kRetrySucceeded[] = "retry.succeeded";
inline constexpr char kRetryExhausted[] = "retry.exhausted";
inline constexpr char kRetryDeadlineAbandoned[] = "retry.deadline_abandoned";
inline constexpr char kRetryAttempts[] = "retry.attempts";
inline constexpr char kRetryBackoffSeconds[] = "retry.backoff_seconds";
inline constexpr char kRetryRequeued[] = "retry.requeued";

// --- checkpoint / faults: robustness layer ---------------------------------
inline constexpr char kCheckpointPointsRestored[] =
    "checkpoint.points_restored";
inline constexpr char kCheckpointPointsAppended[] =
    "checkpoint.points_appended";
inline constexpr char kFaultsDelays[] = "faults.delays";
inline constexpr char kFaultsInjected[] = "faults.injected";

// --- pool: thread pools (src/common/thread_pool.cc), per {pool} ------------
inline constexpr char kPoolQueued[] = "pool.queued";
inline constexpr char kPoolActive[] = "pool.active";
inline constexpr char kPoolWorkers[] = "pool.workers";
inline constexpr char kPoolTasks[] = "pool.tasks";
inline constexpr char kPoolTaskWaitSeconds[] = "pool.task_wait_seconds";
inline constexpr char kPoolTaskRunSeconds[] = "pool.task_run_seconds";

// --- algo: anonymization phase timings (src/engine/), per {algorithm,
// phase} — algorithm is the registry name ("Cluster", "Apriori", or
// "rel+txn" in rt mode), phase the PhaseTimer entry.
inline constexpr char kAlgoPhaseSeconds[] = "algo.phase_seconds";

}  // namespace metric_names
}  // namespace secreta

#endif  // SECRETA_OBS_METRIC_NAMES_H_
