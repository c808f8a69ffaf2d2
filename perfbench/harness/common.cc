#include "harness/common.h"

#include <sys/resource.h>

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>

namespace perfbench {

Flags::Flags(int argc, char** argv) {
  for (int i = 0; i < argc; ++i) {
    std::string arg = argv[i];
    if (arg.rfind("--", 0) != 0 || i + 1 >= argc) {
      Die("bad flag " + arg + " (expected --name value)");
    }
    values_[arg.substr(2)] = argv[++i];
  }
}

std::string Flags::Str(const std::string& name) const {
  auto it = values_.find(name);
  if (it == values_.end()) Die("missing --" + name);
  return it->second;
}

int64_t Flags::Int(const std::string& name) const {
  return std::strtoll(Str(name).c_str(), nullptr, 10);
}

double Flags::Num(const std::string& name) const {
  return std::strtod(Str(name).c_str(), nullptr);
}

void Die(const std::string& what, const secreta::Status& status) {
  Die(what + ": " + status.ToString());
}

void Die(const std::string& what) {
  std::fprintf(stderr, "perfbench_harness: %s\n", what.c_str());
  std::exit(1);
}

double Now() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

Usage SelfUsage() {
  struct rusage ru;
  getrusage(RUSAGE_SELF, &ru);
  Usage usage;
  usage.cpu_s = ru.ru_utime.tv_sec + ru.ru_utime.tv_usec * 1e-6 +
                ru.ru_stime.tv_sec + ru.ru_stime.tv_usec * 1e-6;
  usage.involuntary_switches = ru.ru_nivcsw;
  usage.peak_rss_mb = ru.ru_maxrss / 1024.0;  // Linux reports KiB
  return usage;
}

HostTimes ReadHostTimes() {
  std::ifstream in("/proc/stat");
  std::string cpu;
  double fields[8] = {0, 0, 0, 0, 0, 0, 0, 0};
  in >> cpu;
  for (double& field : fields) in >> field;
  HostTimes times;
  for (double field : fields) times.total += field;
  times.steal = fields[7];
  return times;
}

double StealShare(const HostTimes& start, const HostTimes& end) {
  const double total = end.total - start.total;
  return total > 0 ? (end.steal - start.steal) / total : 0;
}

double Median(std::vector<double> values) {
  if (values.empty()) return 0;
  std::sort(values.begin(), values.end());
  const size_t mid = values.size() / 2;
  return values.size() % 2 == 1 ? values[mid]
                                : (values[mid - 1] + values[mid]) / 2;
}

uint64_t Fnv1a(const std::string& bytes) {
  uint64_t hash = 1469598103934665603ull;
  for (unsigned char c : bytes) {
    hash ^= c;
    hash *= 1099511628211ull;
  }
  return hash;
}

std::string Hex(uint64_t value) {
  char buf[17];
  std::snprintf(buf, sizeof(buf), "%016llx",
                static_cast<unsigned long long>(value));
  return buf;
}

double FileMb(const std::string& path) {
  std::error_code ec;
  const auto bytes = std::filesystem::file_size(path, ec);
  return ec ? 0.0 : static_cast<double>(bytes) / (1024.0 * 1024.0);
}

// ---- Tracer ----------------------------------------------------------------

int Tracer::Begin(const std::string& name, const std::string& layer,
                  int64_t op, int parent) {
  if (!enabled_) return -1;
  const double now = Now();
  return Add(name, layer, now, now, op, parent);
}

void Tracer::End(int id) {
  if (id >= 0) spans_[static_cast<size_t>(id)].end = Now();
}

int Tracer::Add(const std::string& name, const std::string& layer,
                double start, double end, int64_t op, int parent) {
  if (!enabled_) return -1;
  spans_.push_back(Span{name, layer, start, end, parent, op});
  return static_cast<int>(spans_.size() - 1);
}

std::map<std::string, double> Tracer::SelfSecondsByLayer() const {
  std::vector<std::vector<std::pair<double, double>>> children(spans_.size());
  for (const Span& span : spans_) {
    if (span.parent >= 0) {
      children[static_cast<size_t>(span.parent)].emplace_back(span.start,
                                                              span.end);
    }
  }
  std::map<std::string, double> self;
  for (size_t i = 0; i < spans_.size(); ++i) {
    const Span& span = spans_[i];
    // Union of the children's intervals, clipped to the parent.
    auto& kids = children[i];
    std::sort(kids.begin(), kids.end());
    double covered = 0;
    double cursor = span.start;
    for (auto [start, end] : kids) {
      start = std::max(start, cursor);
      end = std::min(end, span.end);
      if (end > start) {
        covered += end - start;
        cursor = end;
      }
    }
    self[span.layer] += std::max(0.0, span.end - span.start - covered);
  }
  return self;
}

void Tracer::WriteChromeTrace(const std::string& path) const {
  std::ofstream out(path, std::ios::trunc);
  out << "{\"traceEvents\":[";
  for (size_t i = 0; i < spans_.size(); ++i) {
    const Span& span = spans_[i];
    char line[512];
    std::snprintf(line, sizeof(line),
                  "%s\n{\"name\":\"%s\",\"cat\":\"%s\",\"ph\":\"X\","
                  "\"ts\":%.3f,\"dur\":%.3f,\"pid\":1,\"tid\":%lld,"
                  "\"args\":{\"id\":%zu,\"parent\":%d}}",
                  i == 0 ? "" : ",", span.name.c_str(), span.layer.c_str(),
                  span.start * 1e6, (span.end - span.start) * 1e6,
                  static_cast<long long>(span.op), i, span.parent);
    out << line;
  }
  out << "\n]}\n";
  if (!out) Die("write trace " + path);
}

// ---- Report ----------------------------------------------------------------

void Report::Nums(const std::string& key, const std::vector<double>& values) {
  json_.Key(key);
  json_.BeginArray();
  for (double value : values) json_.Number(value);
  json_.EndArray();
}

void Report::Map(const std::string& key,
                 const std::map<std::string, double>& values) {
  json_.Key(key);
  json_.BeginObject();
  for (const auto& [name, value] : values) {
    json_.Key(name);
    json_.Number(value);
  }
  json_.EndObject();
}

void Report::Print() {
  json_.EndObject();
  std::printf("%s\n", json_.TakeString().c_str());
  std::fflush(stdout);
}

}  // namespace perfbench
