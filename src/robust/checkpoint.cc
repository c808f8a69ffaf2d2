#include "robust/checkpoint.h"

#include "common/string_util.h"
#include "robust/record_log.h"
#include "service/result_cache.h"

namespace secreta {

namespace {

constexpr const char* kMagic = "secreta-checkpoint";

// Metric fields of one record, in serialization order. "runtime" maps to
// run.runtime_seconds; everything else is a direct EvaluationReport field.
constexpr const char* kMetricOrder[] = {
    "gcp",        "ul",           "are",       "discernibility",
    "cavg",       "item_freq_error", "entropy_loss", "kl_relational",
    "kl_items",   "suppressed",   "runtime",   "evaluation_seconds",
    "queries_per_second"};
constexpr size_t kNumMetrics = sizeof(kMetricOrder) / sizeof(kMetricOrder[0]);

// Records are tab-separated; strings are percent-escaped so every field is a
// single tab-free, newline-free token (empty strings stay empty tokens —
// Split preserves them).
std::string EscapeField(const std::string& raw) {
  std::string out;
  out.reserve(raw.size());
  for (char c : raw) {
    if (c == '%' || c == '\t' || c == '\n' || c == '\r') {
      out += StrFormat("%%%02x", static_cast<unsigned char>(c));
    } else {
      out += c;
    }
  }
  return out;
}

int HexNibble(char c) {
  if (c >= '0' && c <= '9') return c - '0';
  if (c >= 'a' && c <= 'f') return c - 'a' + 10;
  if (c >= 'A' && c <= 'F') return c - 'A' + 10;
  return -1;
}

bool UnescapeField(const std::string& field, std::string* out) {
  out->clear();
  out->reserve(field.size());
  for (size_t i = 0; i < field.size(); ++i) {
    if (field[i] != '%') {
      *out += field[i];
      continue;
    }
    if (i + 2 >= field.size()) return false;
    int hi = HexNibble(field[i + 1]);
    int lo = HexNibble(field[i + 2]);
    if (hi < 0 || lo < 0) return false;
    *out += static_cast<char>(hi * 16 + lo);
    i += 2;
  }
  return true;
}

// Field `index` of kMetricOrder within a report, for serialization
// (read via the const overload below) and restoration.
double* MetricSlot(EvaluationReport* report, size_t index) {
  switch (index) {
    case 0:
      return &report->gcp;
    case 1:
      return &report->ul;
    case 2:
      return &report->are;
    case 3:
      return &report->discernibility;
    case 4:
      return &report->cavg;
    case 5:
      return &report->item_freq_error;
    case 6:
      return &report->entropy_loss;
    case 7:
      return &report->kl_relational;
    case 8:
      return &report->kl_items;
    case 9:
      return &report->suppressed;
    case 10:
      return &report->run.runtime_seconds;
    case 11:
      return &report->evaluation_seconds;
    case 12:
      return &report->queries_per_second;
  }
  return nullptr;
}

double MetricValue(const EvaluationReport& report, size_t index) {
  return *MetricSlot(const_cast<EvaluationReport*>(&report), index);
}

std::string SerializeRecord(uint64_t key, double value,
                            const EvaluationReport& report) {
  std::vector<std::string> fields;
  fields.push_back("point");
  fields.push_back(U64Hex(key));
  fields.push_back(EncodeDouble(value));
  for (size_t i = 0; i < kNumMetrics; ++i) {
    fields.push_back(EncodeDouble(MetricValue(report, i)));
  }
  fields.push_back(std::to_string(report.run.initial_clusters));
  fields.push_back(std::to_string(report.run.final_clusters));
  fields.push_back(std::to_string(report.run.merges));
  fields.push_back(report.guarantee_checked ? "1" : "0");
  fields.push_back(report.guarantee_ok ? "1" : "0");
  fields.push_back(EscapeField(report.guarantee_name));
  fields.push_back(report.degraded ? "1" : "0");
  fields.push_back(EscapeField(report.degraded_detail));
  const auto& phases = report.run.phases.phases();
  fields.push_back(std::to_string(phases.size()));
  for (const auto& [name, seconds] : phases) {
    fields.push_back(EscapeField(name));
    fields.push_back(EncodeDouble(seconds));
  }
  return Join(fields, "\t");
}

bool ParseRecord(const std::string& line, uint64_t* key, double* value,
                 EvaluationReport* report) {
  std::vector<std::string> fields = Split(line, '\t');
  // point + key + value + metrics + 3 cluster counts + 2 guarantee flags +
  // name + degraded flag + detail + phase count.
  constexpr size_t kFixed = 3 + kNumMetrics + 3 + 2 + 1 + 2 + 1;
  if (fields.size() < kFixed || fields[0] != "point") return false;
  size_t at = 1;
  if (!DecodeU64Hex(fields[at++], key)) return false;
  if (!DecodeDouble(fields[at++], value)) return false;
  for (size_t i = 0; i < kNumMetrics; ++i) {
    if (!DecodeDouble(fields[at++], MetricSlot(report, i))) return false;
  }
  uint64_t clusters = 0;
  if (!DecodeU64(fields[at++], &clusters)) return false;
  report->run.initial_clusters = clusters;
  if (!DecodeU64(fields[at++], &clusters)) return false;
  report->run.final_clusters = clusters;
  if (!DecodeU64(fields[at++], &clusters)) return false;
  report->run.merges = clusters;
  report->guarantee_checked = fields[at++] == "1";
  report->guarantee_ok = fields[at++] == "1";
  if (!UnescapeField(fields[at++], &report->guarantee_name)) return false;
  report->degraded = fields[at++] == "1";
  if (!UnescapeField(fields[at++], &report->degraded_detail)) return false;
  uint64_t num_phases = 0;
  if (!DecodeU64(fields[at++], &num_phases)) return false;
  // Bound the count before doubling it: 2 * (2^63 + 1) wraps to 2.
  if (num_phases > fields.size() || fields.size() != kFixed + 2 * num_phases) {
    return false;
  }
  for (uint64_t i = 0; i < num_phases; ++i) {
    std::string name;
    double seconds = 0;
    if (!UnescapeField(fields[at++], &name)) return false;
    if (!DecodeDouble(fields[at++], &seconds)) return false;
    report->run.phases.Add(name, seconds);
  }
  return true;
}

}  // namespace

Result<std::unique_ptr<CheckpointLog>> CheckpointLog::Open(
    const std::string& path, uint64_t dataset_fp, uint64_t workload_fp) {
  std::unordered_map<uint64_t, Record> records;
  std::ofstream out;
  SECRETA_RETURN_IF_ERROR(OpenRecordLog(
      path, kMagic, "dataset/workload", {dataset_fp, workload_fp},
      [&](std::istream& in) {
        std::string line;
        uint64_t key = 0;
        Record record;
        if (!ReadRecordLine(in, &line) ||
            !ParseRecord(line, &key, &record.value, &record.report)) {
          return false;
        }
        records[key] = std::move(record);
        return true;
      },
      &out));
  std::unique_ptr<CheckpointLog> log(
      new CheckpointLog(path, dataset_fp, workload_fp));
  log->loaded_ = records.size();
  // The log is not published yet, but records_/out_ are guarded fields:
  // take the (uncontended) lock so filling them satisfies the thread-safety
  // analysis instead of opting out of it.
  MutexLock lock(log->mutex_);
  log->records_ = std::move(records);
  log->out_ = std::move(out);
  return log;
}

uint64_t CheckpointLog::PointKey(const AlgorithmConfig& point_config,
                                 uint64_t dataset_fp, uint64_t workload_fp,
                                 size_t config_index) {
  return HashCombine(RunCacheKey(point_config, dataset_fp, workload_fp),
                     static_cast<uint64_t>(config_index));
}

bool CheckpointLog::Find(uint64_t key, EvaluationReport* report,
                         double* value) const {
  MutexLock lock(mutex_);
  auto it = records_.find(key);
  if (it == records_.end()) return false;
  *report = it->second.report;
  if (value != nullptr) *value = it->second.value;
  return true;
}

Status CheckpointLog::Append(uint64_t key, double value,
                             const EvaluationReport& report) {
  std::string line = SerializeRecord(key, value, report);
  MutexLock lock(mutex_);
  out_ << line << '\n' << std::flush;
  if (!out_) {
    return Status::IOError("checkpoint append failed: " + path_);
  }
  Record record;
  record.value = value;
  record.report = report;
  records_[key] = std::move(record);
  ++appended_;
  return Status::OK();
}

size_t CheckpointLog::appended() const {
  MutexLock lock(mutex_);
  return appended_;
}

Result<std::unique_ptr<CheckpointLog>> OpenCheckpointForRun(
    const std::string& path, const EngineInputs& inputs,
    const Workload* workload) {
  if (inputs.dataset == nullptr) {
    return Status::InvalidArgument("checkpoint requires EngineInputs.dataset");
  }
  return CheckpointLog::Open(path, DatasetFingerprint(*inputs.dataset),
                             WorkloadFingerprint(workload));
}

}  // namespace secreta
