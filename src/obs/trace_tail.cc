#include "obs/trace_tail.h"

#include <cstdio>
#include <utility>

#include "common/string_util.h"
#include "export/json_writer.h"
#include "obs/metric_names.h"
#include "obs/metrics_registry.h"

namespace secreta {

namespace {

void WriteTraceFields(const RequestTrace& trace, JsonWriter* writer) {
  writer->BeginObject();
  writer->Key("trace_id");
  writer->Int(static_cast<int64_t>(trace.trace_id));
  writer->Key("tenant");
  writer->String(trace.tenant);
  writer->Key("dataset");
  writer->String(trace.dataset);
  writer->Key("query_shape");
  writer->String(trace.query_shape);
  writer->Key("outcome");
  writer->String(trace.outcome);
  writer->Key("kernel_tier");
  writer->String(trace.kernel_tier);
  writer->Key("run_seconds");
  writer->Number(trace.run_seconds);
  writer->Key("total_seconds");
  writer->Number(trace.total_seconds);
  writer->Key("cached");
  writer->Bool(trace.cached);
  writer->Key("slow");
  writer->Bool(trace.slow);
  writer->Key("error");
  writer->Bool(trace.error);
  writer->EndObject();
}

}  // namespace

TraceTail& TraceTail::Global() {
  static TraceTail* tail = new TraceTail();  // leaked, like the registry
  return *tail;
}

TraceTail::TraceTail(size_t capacity)
    : capacity_(capacity),
      seen_(MetricsRegistry::Global().counter(metric_names::kTraceTailSeen)),
      pinned_(
          MetricsRegistry::Global().counter(metric_names::kTraceTailPinned)),
      evicted_(MetricsRegistry::Global().counter(
          metric_names::kTraceTailEvicted)) {}

void TraceTail::CountHealthy() { seen_->Increment(); }

void TraceTail::SetCapacity(size_t capacity) {
  MutexLock lock(mutex_);
  capacity_ = capacity;
  while (ring_.size() > capacity_) ring_.pop_front();
}

size_t TraceTail::capacity() const {
  MutexLock lock(mutex_);
  return capacity_;
}

uint64_t TraceTail::NextTraceId() {
  return next_id_.fetch_add(1, std::memory_order_relaxed);
}

void TraceTail::Record(RequestTrace trace) {
  seen_->Increment();
  if (!trace.slow && !trace.error) return;
  pinned_->Increment();
  MutexLock lock(mutex_);
  if (capacity_ == 0) return;
  if (ring_.size() >= capacity_) {
    ring_.pop_front();
    evicted_->Increment();
  }
  ring_.push_back(std::move(trace));
}

std::vector<RequestTrace> TraceTail::Snapshot() const {
  MutexLock lock(mutex_);
  return std::vector<RequestTrace>(ring_.begin(), ring_.end());
}

void TraceTail::Clear() {
  MutexLock lock(mutex_);
  ring_.clear();
}

Status TraceTail::WriteJsonl(const std::string& path) const {
  std::vector<RequestTrace> traces = Snapshot();
  std::FILE* file = std::fopen(path.c_str(), "w");
  if (file == nullptr) {
    return Status::IOError(
        StrFormat("cannot open trace tail output \"%s\"", path.c_str()));
  }
  for (const RequestTrace& trace : traces) {
    const std::string line = RequestTraceToJsonLine(trace);
    if (std::fwrite(line.data(), 1, line.size(), file) != line.size() ||
        std::fputc('\n', file) == EOF) {
      std::fclose(file);
      return Status::IOError(
          StrFormat("short write to trace tail output \"%s\"", path.c_str()));
    }
  }
  if (std::fclose(file) != 0) {
    return Status::IOError(
        StrFormat("close failed for trace tail output \"%s\"", path.c_str()));
  }
  return Status::OK();
}

std::string RequestTracesToJson(const std::vector<RequestTrace>& traces) {
  JsonWriter writer;
  writer.BeginArray();
  for (const RequestTrace& trace : traces) WriteTraceFields(trace, &writer);
  writer.EndArray();
  return writer.TakeString();
}

std::string RequestTraceToJsonLine(const RequestTrace& trace) {
  JsonWriter writer;
  WriteTraceFields(trace, &writer);
  return writer.TakeString();
}

}  // namespace secreta
