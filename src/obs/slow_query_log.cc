#include "obs/slow_query_log.h"

#include "common/string_util.h"
#include "export/json_writer.h"
#include "obs/metric_names.h"
#include "obs/metrics_registry.h"

namespace secreta {

SlowQueryLog& SlowQueryLog::Global() {
  static SlowQueryLog* log = new SlowQueryLog();  // leaked, like the registry
  return *log;
}

SlowQueryLog::SlowQueryLog()
    : records_counter_(MetricsRegistry::Global().counter(
          metric_names::kSlowQueryLogRecords)) {}

SlowQueryLog::~SlowQueryLog() { Close(); }

Status SlowQueryLog::Open(const std::string& path, double threshold_seconds) {
  std::FILE* file = std::fopen(path.c_str(), "w");
  if (file == nullptr) {
    return Status::IOError(
        StrFormat("cannot open slow-query log \"%s\"", path.c_str()));
  }
  MutexLock lock(mutex_);
  if (file_ != nullptr) std::fclose(file_);
  file_ = file;
  threshold_seconds_ = threshold_seconds;
  records_written_ = 0;
  enabled_.store(true, std::memory_order_release);
  return Status::OK();
}

void SlowQueryLog::Close() {
  MutexLock lock(mutex_);
  enabled_.store(false, std::memory_order_release);
  if (file_ != nullptr) {
    std::fclose(file_);
    file_ = nullptr;
  }
}

double SlowQueryLog::threshold_seconds() const {
  MutexLock lock(mutex_);
  return threshold_seconds_;
}

void SlowQueryLog::Record(const SlowQueryRecord& record) {
  if (!enabled()) return;
  const std::string line = SlowQueryRecordToJsonLine(record);
  {
    MutexLock lock(mutex_);
    if (file_ == nullptr) return;
    std::fwrite(line.data(), 1, line.size(), file_);
    std::fputc('\n', file_);
    // Flushed per record so operators can tail the file live; slow queries
    // are rare by construction, so the flush is off the hot path.
    std::fflush(file_);
    ++records_written_;
  }
  records_counter_->Increment();
}

uint64_t SlowQueryLog::records_written() const {
  MutexLock lock(mutex_);
  return records_written_;
}

std::string SlowQueryRecordToJsonLine(const SlowQueryRecord& record) {
  JsonWriter writer;
  writer.BeginObject();
  writer.Key("trace_id");
  writer.Int(static_cast<int64_t>(record.trace_id));
  writer.Key("tenant");
  writer.String(record.tenant);
  writer.Key("dataset");
  writer.String(record.dataset);
  writer.Key("query_shape");
  writer.String(record.query_shape);
  writer.Key("outcome");
  writer.String(record.outcome);
  writer.Key("kernel_tier");
  writer.String(record.kernel_tier);
  writer.Key("run_seconds");
  writer.Number(record.run_seconds);
  writer.Key("total_seconds");
  writer.Number(record.total_seconds);
  writer.Key("threshold_seconds");
  writer.Number(record.threshold_seconds);
  writer.Key("cached");
  writer.Bool(record.cached);
  writer.EndObject();
  return writer.TakeString();
}

}  // namespace secreta
