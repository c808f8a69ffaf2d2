// Span tracer: the timing half of the observability layer. RAII ScopedSpans
// record (name, thread, start, duration, nesting depth) into per-thread
// buffers and export Chrome trace-event JSON that chrome://tracing and
// Perfetto open directly, so a full experiment run (anonymize → evaluate →
// compare) can be inspected phase by phase without a debugger.
//
// Design constraints, in order:
//  - Near-zero overhead when disabled: a span costs one relaxed atomic load.
//  - No locks on the hot path when enabled: every thread appends to its own
//    chunked buffer and publishes entries with a release store; the exporter
//    reads them with acquire loads. A mutex is taken only on a thread's
//    first span (buffer registration) and on first use of a span name
//    (interning).
//  - Buffers are append-only. Reset() discards logically (events that start
//    before the reset mark are skipped on export) so no memory is ever
//    reclaimed out from under a recording thread.
//
// Usage:
//   Tracer::Get().Enable();
//   {
//     SECRETA_TRACE_SPAN("anonymize");          // static name, interned once
//     ScopedSpan inner("algo." + config.Label());  // dynamic name
//     ...
//   }
//   Tracer::Get().WriteChromeTrace("trace.json");
//
// Span naming convention: dotted lowercase paths, broad to narrow —
// "anonymize", "anonymize.relational", "evaluate", "evaluate.are",
// "are.batch", "compare", "compare.cell", "sweep.point", "job.run",
// "algo.<Name>". See DESIGN.md §Observability.

#ifndef SECRETA_OBS_TRACE_H_
#define SECRETA_OBS_TRACE_H_

#include <array>
#include <atomic>
#include <chrono>
#include <cstdint>
#include <memory>
#include <string>
#include <string_view>
#include <unordered_map>
#include <vector>

#include "common/annotations.h"
#include "common/mutex.h"
#include "common/status.h"

namespace secreta {

/// One completed span. Timestamps are nanoseconds on the steady clock,
/// relative to the tracer's construction.
struct TraceEvent {
  uint32_t name_id = 0;
  uint32_t depth = 0;  ///< nesting depth on the recording thread (1 = root)
  uint64_t start_ns = 0;
  uint64_t dur_ns = 0;
};

/// A TraceEvent joined with its resolved name and thread id, as returned by
/// Tracer::CollectEvents (tests and custom exporters).
struct ResolvedTraceEvent {
  std::string name;
  uint32_t tid = 0;
  uint32_t depth = 0;
  uint64_t start_ns = 0;
  uint64_t dur_ns = 0;
};

/// \brief Process-wide span collector.
///
/// All members are thread-safe. Export may run concurrently with recording:
/// it sees every span published before the export started and none of the
/// partially written ones.
class Tracer {
 public:
  static Tracer& Get();

  void Enable() { enabled_.store(true, std::memory_order_relaxed); }
  void Disable() { enabled_.store(false, std::memory_order_relaxed); }
  bool enabled() const { return enabled_.load(std::memory_order_relaxed); }

  /// Maps `name` to a stable id, inserting on first use. Ids are dense and
  /// never invalidated.
  uint32_t Intern(std::string_view name) SECRETA_EXCLUDES(mutex_);

  /// Nanoseconds since tracer construction (steady clock).
  uint64_t NowNs() const;

  /// Appends a completed span to the calling thread's buffer.
  void Record(uint32_t name_id, uint64_t start_ns, uint64_t dur_ns,
              uint32_t depth);

  /// Every span recorded since the last Reset(), sorted by (tid, start).
  std::vector<ResolvedTraceEvent> CollectEvents() const
      SECRETA_EXCLUDES(mutex_);

  /// Spans recorded since the last Reset().
  size_t num_events() const;

  /// Logically discards everything recorded so far (buffers are kept; spans
  /// that started before this call are skipped on export).
  void Reset();

  /// Serializes collected spans as Chrome trace-event JSON ("X" complete
  /// events in microseconds, plus process/thread "M" metadata).
  std::string ToChromeTraceJson() const;

  /// Writes ToChromeTraceJson() to `path`.
  Status WriteChromeTrace(const std::string& path) const;

 private:
  // Chunked per-thread event buffer. The owning thread writes events and
  // publishes them via `count` (release); readers walk `next`/`count` with
  // acquire loads. Chunks are never freed while the tracer lives.
  struct Chunk {
    static constexpr size_t kCapacity = 4096;
    std::array<TraceEvent, kCapacity> events;
    std::atomic<uint32_t> count{0};
    std::atomic<Chunk*> next{nullptr};
  };

  struct ThreadBuffer {
    uint32_t tid = 0;
    std::unique_ptr<Chunk> head;
    Chunk* tail = nullptr;  ///< owner-thread cache of the last chunk
  };

  Tracer();
  ThreadBuffer* BufferForThisThread() SECRETA_EXCLUDES(mutex_);

  std::atomic<bool> enabled_{false};
  std::atomic<uint64_t> discard_before_ns_{0};
  std::chrono::steady_clock::time_point epoch_;

  // Guards buffer registration and name interning; the record hot path is
  // lock-free (per-thread chunks published with release stores).
  mutable Mutex mutex_;
  std::vector<std::unique_ptr<ThreadBuffer>> buffers_
      SECRETA_GUARDED_BY(mutex_);
  std::vector<std::string> names_ SECRETA_GUARDED_BY(mutex_);
  std::unordered_map<std::string, uint32_t> name_ids_
      SECRETA_GUARDED_BY(mutex_);
};

/// \brief RAII span: measures construction-to-destruction on the current
/// thread. When the tracer is disabled at construction, both ends are no-ops.
class ScopedSpan {
 public:
  /// Hot-path form: `name_id` was interned ahead of time (see
  /// SECRETA_TRACE_SPAN, which interns once per call site).
  explicit ScopedSpan(uint32_t name_id);

  /// Dynamic-name form: interns `name` only when the tracer is enabled.
  explicit ScopedSpan(std::string_view name);

  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

  ~ScopedSpan();

 private:
  void Open(uint32_t name_id);

  bool active_ = false;
  uint32_t name_id_ = 0;
  uint32_t depth_ = 0;
  uint64_t start_ns_ = 0;
};

#define SECRETA_TRACE_CAT2(a, b) a##b
#define SECRETA_TRACE_CAT(a, b) SECRETA_TRACE_CAT2(a, b)

/// Opens a span for the rest of the enclosing scope. `name` must be a string
/// usable at static-initialization time (normally a literal); it is interned
/// exactly once per call site.
#define SECRETA_TRACE_SPAN(name)                                      \
  static const uint32_t SECRETA_TRACE_CAT(secreta_span_id_,           \
                                          __LINE__) =                 \
      ::secreta::Tracer::Get().Intern(name);                          \
  ::secreta::ScopedSpan SECRETA_TRACE_CAT(secreta_span_, __LINE__)(   \
      SECRETA_TRACE_CAT(secreta_span_id_, __LINE__))

}  // namespace secreta

#endif  // SECRETA_OBS_TRACE_H_
