// Tail-based trace retention: the query server completes a RequestTrace for
// every COUNT it handles, but only the interesting tail — requests that
// crossed the slow-query threshold or ended in an error — is pinned into a
// bounded ring. This is the sampling strategy production tracers use when
// head-sampling would either drop the one slow request you care about or
// retain millions of healthy ones. The ring is exported live over the wire
// (`admin.traces` op, direct-access tenants only) and dumped as JSONL at
// daemon shutdown (`--trace-tail-out`); trace ids match the slow-query log
// (obs/slow_query_log.h) so an operator can pivot between the two.

#ifndef SECRETA_OBS_TRACE_TAIL_H_
#define SECRETA_OBS_TRACE_TAIL_H_

#include <atomic>
#include <cstdint>
#include <deque>
#include <string>
#include <vector>

#include "common/annotations.h"
#include "common/mutex.h"
#include "common/status.h"

namespace secreta {

class Counter;

/// One completed request, summarized for retention. `slow` / `error` are
/// set by the caller (the server owns the threshold); a trace is pinned iff
/// either is true.
struct RequestTrace {
  uint64_t trace_id = 0;
  std::string tenant;
  std::string dataset;
  /// Predicate shape with values wildcarded ("Age:*;Items:*") — bounded
  /// cardinality, never raw query values.
  std::string query_shape;
  /// "ok" or the StatusCode name of the failure.
  std::string outcome = "ok";
  std::string kernel_tier;
  double run_seconds = 0;    ///< COUNT evaluation on the handler thread
  double total_seconds = 0;  ///< end-to-end frame handling
  bool cached = false;
  bool slow = false;
  bool error = false;
};

/// \brief Bounded ring of pinned (slow or errored) request traces.
///
/// Record() is called for every completed request and is cheap in the common
/// case (one counter bump, no allocation); only pinned traces take the
/// mutex-guarded ring path. Thread-safe.
class TraceTail {
 public:
  /// The process-wide ring used by the serving layer.
  static TraceTail& Global();

  explicit TraceTail(size_t capacity = kDefaultCapacity);

  /// Resizes the ring (oldest traces drop if shrinking). Intended for
  /// daemon startup, but safe at any time.
  void SetCapacity(size_t capacity) SECRETA_EXCLUDES(mutex_);
  size_t capacity() const SECRETA_EXCLUDES(mutex_);

  /// Allocates a fresh process-unique trace id (never 0).
  uint64_t NextTraceId();

  /// Completes one request trace; pins it into the ring iff slow or error.
  void Record(RequestTrace trace) SECRETA_EXCLUDES(mutex_);

  /// Counts a completed healthy request without building or pinning
  /// anything — the fast path for requests that are neither slow nor
  /// errored (one relaxed atomic increment, no strings, no lock).
  void CountHealthy();

  /// Pinned traces, oldest first.
  std::vector<RequestTrace> Snapshot() const SECRETA_EXCLUDES(mutex_);

  /// Drops all pinned traces (counters are left running).
  void Clear() SECRETA_EXCLUDES(mutex_);

  /// Writes the pinned traces as JSONL, one object per line, oldest first.
  [[nodiscard]] Status WriteJsonl(const std::string& path) const
      SECRETA_EXCLUDES(mutex_);

  static constexpr size_t kDefaultCapacity = 256;

 private:
  mutable Mutex mutex_;
  size_t capacity_ SECRETA_GUARDED_BY(mutex_);
  std::deque<RequestTrace> ring_ SECRETA_GUARDED_BY(mutex_);
  std::atomic<uint64_t> next_id_{1};
  // Registry handles are stable for the process lifetime; resolved once at
  // construction so Record() never pays the registry lookup (atomics only).
  Counter* seen_;
  Counter* pinned_;
  Counter* evicted_;
};

/// Serializes traces as a JSON array (used by the `admin.traces` response).
std::string RequestTracesToJson(const std::vector<RequestTrace>& traces);

/// Serializes one trace as a single-line JSON object (JSONL row).
std::string RequestTraceToJsonLine(const RequestTrace& trace);

}  // namespace secreta

#endif  // SECRETA_OBS_TRACE_TAIL_H_
