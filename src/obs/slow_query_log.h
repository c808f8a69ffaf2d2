// Structured slow-query log: the query server appends one JSONL record per
// COUNT whose end-to-end latency crosses a configurable threshold. Records
// carry everything an operator needs to triage without replaying the query —
// tenant, dataset, wildcarded predicate shape, queue wait vs. eval time,
// cache hit, active kernel tier — plus the trace id shared with the
// tail-sampled trace ring (obs/trace_tail.h), so `grep trace_id` pivots
// from the log line to the retained trace. Enabled on secreta_jobd with
// `--slow-query-log PATH --slow-query-threshold SECONDS`.

#ifndef SECRETA_OBS_SLOW_QUERY_LOG_H_
#define SECRETA_OBS_SLOW_QUERY_LOG_H_

#include <atomic>
#include <cstdint>
#include <cstdio>
#include <string>

#include "common/annotations.h"
#include "common/mutex.h"
#include "common/status.h"

namespace secreta {

class Counter;

/// One slow-query record; field names match the JSONL keys.
struct SlowQueryRecord {
  uint64_t trace_id = 0;
  std::string tenant;
  std::string dataset;
  std::string query_shape;  ///< values wildcarded, bounded cardinality
  std::string outcome = "ok";
  std::string kernel_tier;
  double run_seconds = 0;
  double total_seconds = 0;
  double threshold_seconds = 0;
  bool cached = false;
};

/// \brief Append-only JSONL sink with a latency threshold.
///
/// Disabled (no-op) until Open() succeeds. Writes are mutex-serialized and
/// flushed per record so `tail -f` sees lines as they happen. Thread-safe.
class SlowQueryLog {
 public:
  /// The process-wide log used by the serving layer.
  static SlowQueryLog& Global();

  SlowQueryLog();
  ~SlowQueryLog();
  SlowQueryLog(const SlowQueryLog&) = delete;
  SlowQueryLog& operator=(const SlowQueryLog&) = delete;

  /// Opens (truncates) `path` and starts accepting records; requests at or
  /// above `threshold_seconds` total latency should be recorded.
  [[nodiscard]] Status Open(const std::string& path, double threshold_seconds)
      SECRETA_EXCLUDES(mutex_);

  /// Flushes and closes; Record() becomes a no-op again.
  void Close() SECRETA_EXCLUDES(mutex_);

  /// Lock-free; callers on the serving path check this before assembling a
  /// record, so it must not contend with concurrent writers.
  bool enabled() const { return enabled_.load(std::memory_order_acquire); }
  double threshold_seconds() const SECRETA_EXCLUDES(mutex_);

  /// Appends one record (callers decide slowness; the threshold here is
  /// advisory metadata copied into the record). No-op when closed.
  void Record(const SlowQueryRecord& record) SECRETA_EXCLUDES(mutex_);

  /// Records appended since Open() (0 when never opened).
  uint64_t records_written() const SECRETA_EXCLUDES(mutex_);

 private:
  mutable Mutex mutex_;
  std::FILE* file_ SECRETA_GUARDED_BY(mutex_) = nullptr;
  double threshold_seconds_ SECRETA_GUARDED_BY(mutex_) = 0;
  uint64_t records_written_ SECRETA_GUARDED_BY(mutex_) = 0;
  std::atomic<bool> enabled_{false};
  // Stable registry handle, resolved once so Record() skips the lookup.
  Counter* records_counter_;
};

/// Serializes one record as a single-line JSON object (JSONL row).
std::string SlowQueryRecordToJsonLine(const SlowQueryRecord& record);

}  // namespace secreta

#endif  // SECRETA_OBS_SLOW_QUERY_LOG_H_
