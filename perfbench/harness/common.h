// Plumbing shared by the harness subcommands: flag parsing, the clock,
// process counters, the in-memory span recorder, and the one-line JSON
// report that run.py reads from the last line of standard output.

#ifndef PERFBENCH_HARNESS_COMMON_H_
#define PERFBENCH_HARNESS_COMMON_H_

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "common/status.h"
#include "export/json_writer.h"

namespace perfbench {

/// `--name value` pairs; every subcommand takes only this form.
class Flags {
 public:
  Flags(int argc, char** argv);

  // Each dies when the flag is missing: every flag is required.
  std::string Str(const std::string& name) const;
  int64_t Int(const std::string& name) const;
  double Num(const std::string& name) const;

 private:
  std::map<std::string, std::string> values_;
};

/// Prints `what: status` and exits 1. The harness has no partial results:
/// run.py treats a nonzero exit as a failed run.
[[noreturn]] void Die(const std::string& what, const secreta::Status& status);
[[noreturn]] void Die(const std::string& what);

template <typename T>
T Check(secreta::Result<T> result, const std::string& what) {
  if (!result.ok()) Die(what, result.status());
  return std::move(result).value();
}
inline void Check(const secreta::Status& status, const std::string& what) {
  if (!status.ok()) Die(what, status);
}

/// Seconds on the monotonic clock (CLOCK_MONOTONIC, as Python's
/// time.monotonic()), so spans from every process share one timeline.
double Now();

/// This process's CPU time (user + sys), involuntary context switches and
/// peak resident set, from getrusage.
struct Usage {
  double cpu_s = 0;
  int64_t involuntary_switches = 0;
  double peak_rss_mb = 0;
};
Usage SelfUsage();

/// The host's CPU jiffies from /proc/stat: all states, and steal (time the
/// hypervisor ran something else while this VM wanted the CPU).
struct HostTimes {
  double total = 0;
  double steal = 0;
};
HostTimes ReadHostTimes();
/// Steal share of the host's CPU time between two readings.
double StealShare(const HostTimes& start, const HostTimes& end);

double Median(std::vector<double> values);

uint64_t Fnv1a(const std::string& bytes);
std::string Hex(uint64_t value);
double FileMb(const std::string& path);

/// \brief Spans recorded by the harness around its calls into the program.
///
/// A span is one public call (or one value the API returned, placed on the
/// timeline after the fact). Spans of one op share `op`; the op itself is
/// the root span. Nothing is recorded while disabled, so an untraced run
/// pays one branch per call site.
class Tracer {
 public:
  explicit Tracer(bool enabled) : enabled_(enabled) {}

  /// Opens a span now; returns its id (-1 when disabled).
  int Begin(const std::string& name, const std::string& layer, int64_t op,
            int parent = -1);
  void End(int id);
  /// Records a finished span with known bounds.
  int Add(const std::string& name, const std::string& layer, double start,
          double end, int64_t op, int parent = -1);

  /// Self time per layer: each span's duration minus the part of it that
  /// its children cover. Concurrent spans each count, so the sums are busy
  /// time, not wall time.
  std::map<std::string, double> SelfSecondsByLayer() const;

  /// Chrome trace-event JSON (chrome://tracing, Perfetto): one complete
  /// event per span, tid = op (-1 for set-up), with the parent id in args.
  void WriteChromeTrace(const std::string& path) const;

 private:
  struct Span {
    std::string name;
    std::string layer;
    double start = 0;
    double end = 0;
    int parent = -1;
    int64_t op = 0;
  };
  bool enabled_;
  std::vector<Span> spans_;
};

/// RAII span; a no-op on a disabled tracer.
class ScopedSpan {
 public:
  ScopedSpan(Tracer* tracer, const std::string& name, const std::string& layer,
             int64_t op, int parent = -1)
      : tracer_(tracer), id_(tracer->Begin(name, layer, op, parent)) {}
  ~ScopedSpan() { tracer_->End(id_); }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

  int id() const { return id_; }

 private:
  Tracer* tracer_;
  int id_;
};

/// Flat JSON object built key by key with secreta::JsonWriter and printed
/// as one line. Non-finite numbers print as null.
class Report {
 public:
  Report() { json_.BeginObject(); }

  void Num(const std::string& key, double value) {
    json_.Key(key);
    json_.Number(value);
  }
  void Int(const std::string& key, int64_t value) {
    json_.Key(key);
    json_.Int(value);
  }
  void Str(const std::string& key, const std::string& value) {
    json_.Key(key);
    json_.String(value);
  }
  void Bool(const std::string& key, bool value) {
    json_.Key(key);
    json_.Bool(value);
  }
  void Nums(const std::string& key, const std::vector<double>& values);
  /// Adds `values` as an object of numbers.
  void Map(const std::string& key, const std::map<std::string, double>& values);
  /// Prints the object as the last line of standard output.
  void Print();

 private:
  secreta::JsonWriter json_;
};

}  // namespace perfbench

#endif  // PERFBENCH_HARNESS_COMMON_H_
