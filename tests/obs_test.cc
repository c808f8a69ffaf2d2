// Observability-layer tests: the span tracer (interning, nesting,
// concurrency, enable/disable, Reset, Chrome trace-event export — validated
// by parsing the emitted JSON back), the unified metrics registry (handle
// stability, histogram bucket boundaries, snapshots, text/JSON export),
// named thread-pool instrumentation, and a traced end-to-end
// mini-experiment.

#include <gtest/gtest.h>

#include <algorithm>
#include <cctype>
#include <cstdint>
#include <map>
#include <memory>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include "common/thread_pool.h"
#include "engine/config_io.h"
#include "export/json_export.h"
#include "obs/metrics_registry.h"
#include "obs/trace.h"
#include "secreta.h"
#include "tests/test_util.h"

namespace secreta {
namespace {

// ---------------------------------------------------------------------------
// Minimal JSON parser — enough to read back what the tracer / registry emit.
// Independent of JsonWriter, so serialization bugs cannot cancel out.

struct JsonValue {
  enum Kind { kNull, kBool, kNumber, kString, kArray, kObject } kind = kNull;
  bool boolean = false;
  double number = 0;
  std::string str;
  std::vector<JsonValue> array;
  std::map<std::string, JsonValue> object;

  const JsonValue& at(const std::string& key) const {
    auto it = object.find(key);
    EXPECT_NE(it, object.end()) << "missing key: " << key;
    static const JsonValue kEmpty;
    return it == object.end() ? kEmpty : it->second;
  }
  bool has(const std::string& key) const { return object.count(key) > 0; }
};

class JsonParser {
 public:
  explicit JsonParser(const std::string& text) : text_(text) {}

  bool Parse(JsonValue* out) {
    bool ok = ParseValue(out);
    SkipSpace();
    return ok && pos_ == text_.size();
  }

 private:
  void SkipSpace() {
    while (pos_ < text_.size() &&
           std::isspace(static_cast<unsigned char>(text_[pos_]))) {
      ++pos_;
    }
  }

  bool Consume(char c) {
    SkipSpace();
    if (pos_ < text_.size() && text_[pos_] == c) {
      ++pos_;
      return true;
    }
    return false;
  }

  bool ParseLiteral(const char* literal) {
    size_t len = std::string(literal).size();
    if (text_.compare(pos_, len, literal) == 0) {
      pos_ += len;
      return true;
    }
    return false;
  }

  bool ParseString(std::string* out) {
    if (!Consume('"')) return false;
    out->clear();
    while (pos_ < text_.size() && text_[pos_] != '"') {
      char c = text_[pos_++];
      if (c == '\\' && pos_ < text_.size()) {
        char esc = text_[pos_++];
        switch (esc) {
          case 'n': *out += '\n'; break;
          case 'r': *out += '\r'; break;
          case 't': *out += '\t'; break;
          case 'u':
            if (pos_ + 4 > text_.size()) return false;
            *out += static_cast<char>(
                std::stoi(text_.substr(pos_, 4), nullptr, 16));
            pos_ += 4;
            break;
          default: *out += esc;
        }
      } else {
        *out += c;
      }
    }
    return pos_ < text_.size() && text_[pos_++] == '"';
  }

  bool ParseValue(JsonValue* out) {
    SkipSpace();
    if (pos_ >= text_.size()) return false;
    char c = text_[pos_];
    if (c == '{') {
      ++pos_;
      out->kind = JsonValue::kObject;
      SkipSpace();
      if (Consume('}')) return true;
      do {
        std::string key;
        if (!ParseString(&key) || !Consume(':')) return false;
        JsonValue value;
        if (!ParseValue(&value)) return false;
        out->object.emplace(std::move(key), std::move(value));
      } while (Consume(','));
      return Consume('}');
    }
    if (c == '[') {
      ++pos_;
      out->kind = JsonValue::kArray;
      SkipSpace();
      if (Consume(']')) return true;
      do {
        JsonValue value;
        if (!ParseValue(&value)) return false;
        out->array.push_back(std::move(value));
      } while (Consume(','));
      return Consume(']');
    }
    if (c == '"') {
      out->kind = JsonValue::kString;
      return ParseString(&out->str);
    }
    if (c == 't') {
      out->kind = JsonValue::kBool;
      out->boolean = true;
      return ParseLiteral("true");
    }
    if (c == 'f') {
      out->kind = JsonValue::kBool;
      out->boolean = false;
      return ParseLiteral("false");
    }
    if (c == 'n') {
      out->kind = JsonValue::kNull;
      return ParseLiteral("null");
    }
    out->kind = JsonValue::kNumber;
    size_t end = pos_;
    while (end < text_.size() &&
           (std::isdigit(static_cast<unsigned char>(text_[end])) ||
            text_[end] == '-' || text_[end] == '+' || text_[end] == '.' ||
            text_[end] == 'e' || text_[end] == 'E')) {
      ++end;
    }
    if (end == pos_) return false;
    out->number = std::stod(text_.substr(pos_, end - pos_));
    pos_ = end;
    return true;
  }

  const std::string& text_;
  size_t pos_ = 0;
};

JsonValue ParseJsonOrDie(const std::string& text) {
  JsonValue value;
  JsonParser parser(text);
  EXPECT_TRUE(parser.Parse(&value)) << "unparsable JSON: " << text;
  return value;
}

// Names of all "X" (complete) events in a Chrome trace document.
std::vector<std::string> SpanNames(const JsonValue& trace) {
  std::vector<std::string> names;
  for (const JsonValue& event : trace.at("traceEvents").array) {
    if (event.at("ph").str == "X") names.push_back(event.at("name").str);
  }
  return names;
}

// ---------------------------------------------------------------------------
// Tracer

TEST(TracerTest, InternReturnsStableIds) {
  Tracer& tracer = Tracer::Get();
  uint32_t a1 = tracer.Intern("obs_test.intern.a");
  uint32_t a2 = tracer.Intern("obs_test.intern.a");
  uint32_t b = tracer.Intern("obs_test.intern.b");
  EXPECT_EQ(a1, a2);
  EXPECT_NE(a1, b);
}

TEST(TracerTest, DisabledSpansRecordNothing) {
  Tracer& tracer = Tracer::Get();
  tracer.Reset();
  tracer.Disable();
  {
    SECRETA_TRACE_SPAN("obs_test.disabled");
    ScopedSpan dynamic(std::string_view("obs_test.disabled.dynamic"));
  }
  EXPECT_EQ(tracer.num_events(), 0u);
}

TEST(TracerTest, NestedSpansHaveDepthAndContainment) {
  Tracer& tracer = Tracer::Get();
  tracer.Reset();
  tracer.Enable();
  {
    ScopedSpan outer(std::string_view("obs_test.outer"));
    {
      ScopedSpan inner(std::string_view("obs_test.inner"));
    }
  }
  tracer.Disable();

  std::vector<ResolvedTraceEvent> events = tracer.CollectEvents();
  ASSERT_EQ(events.size(), 2u);
  // Same thread, sorted by start time: outer opened first.
  EXPECT_EQ(events[0].tid, events[1].tid);
  const ResolvedTraceEvent& outer = events[0];
  const ResolvedTraceEvent& inner = events[1];
  EXPECT_EQ(outer.name, "obs_test.outer");
  EXPECT_EQ(inner.name, "obs_test.inner");
  EXPECT_EQ(outer.depth, 1u);
  EXPECT_EQ(inner.depth, 2u);
  // The inner span nests inside the outer one.
  EXPECT_GE(inner.start_ns, outer.start_ns);
  EXPECT_LE(inner.start_ns + inner.dur_ns, outer.start_ns + outer.dur_ns);
}

TEST(TracerTest, ConcurrentThreadsGetDistinctTids) {
  constexpr int kThreads = 4;
  constexpr int kSpansPerThread = 100;
  Tracer& tracer = Tracer::Get();
  tracer.Reset();
  tracer.Enable();
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([] {
      for (int i = 0; i < kSpansPerThread; ++i) {
        ScopedSpan span(std::string_view("obs_test.worker"));
      }
    });
  }
  for (auto& thread : threads) thread.join();
  tracer.Disable();

  std::vector<ResolvedTraceEvent> events = tracer.CollectEvents();
  EXPECT_EQ(events.size(), static_cast<size_t>(kThreads * kSpansPerThread));
  std::set<uint32_t> tids;
  for (const auto& event : events) tids.insert(event.tid);
  EXPECT_EQ(tids.size(), static_cast<size_t>(kThreads));
  // CollectEvents sorts by (tid, start) — starts are non-decreasing per tid.
  for (size_t i = 1; i < events.size(); ++i) {
    if (events[i].tid == events[i - 1].tid) {
      EXPECT_GE(events[i].start_ns, events[i - 1].start_ns);
    }
  }
}

TEST(TracerTest, SpansOutliveChunkCapacity) {
  // More spans than one chunk holds, to cross the chunk-chaining path.
  constexpr size_t kSpans = 5000;
  Tracer& tracer = Tracer::Get();
  tracer.Reset();
  tracer.Enable();
  for (size_t i = 0; i < kSpans; ++i) {
    ScopedSpan span(std::string_view("obs_test.many"));
  }
  tracer.Disable();
  EXPECT_EQ(tracer.num_events(), kSpans);
}

TEST(TracerTest, ResetDiscardsEarlierSpans) {
  Tracer& tracer = Tracer::Get();
  tracer.Reset();
  tracer.Enable();
  {
    ScopedSpan span(std::string_view("obs_test.before"));
  }
  ASSERT_EQ(tracer.num_events(), 1u);
  tracer.Reset();
  EXPECT_EQ(tracer.num_events(), 0u);
  {
    ScopedSpan span(std::string_view("obs_test.after"));
  }
  tracer.Disable();
  std::vector<ResolvedTraceEvent> events = tracer.CollectEvents();
  ASSERT_EQ(events.size(), 1u);
  EXPECT_EQ(events[0].name, "obs_test.after");
}

TEST(TracerTest, ChromeTraceJsonRoundTrips) {
  Tracer& tracer = Tracer::Get();
  tracer.Reset();
  tracer.Enable();
  {
    ScopedSpan outer(std::string_view("obs_test.chrome.outer"));
    ScopedSpan inner(std::string_view("obs_test.chrome \"quoted\""));
  }
  tracer.Disable();

  JsonValue trace = ParseJsonOrDie(tracer.ToChromeTraceJson());
  EXPECT_EQ(trace.at("displayTimeUnit").str, "ms");

  size_t x_events = 0;
  size_t metadata_events = 0;
  for (const JsonValue& event : trace.at("traceEvents").array) {
    const std::string& ph = event.at("ph").str;
    if (ph == "M") {
      ++metadata_events;
      continue;
    }
    ASSERT_EQ(ph, "X");
    ++x_events;
    EXPECT_TRUE(event.has("name"));
    EXPECT_TRUE(event.has("ts"));
    EXPECT_TRUE(event.has("dur"));
    EXPECT_GE(event.at("dur").number, 0.0);
    EXPECT_GE(event.at("args").at("depth").number, 1.0);
  }
  EXPECT_EQ(x_events, 2u);
  // process_name plus one thread_name per recording thread.
  EXPECT_GE(metadata_events, 2u);

  std::vector<std::string> names = SpanNames(trace);
  EXPECT_NE(std::find(names.begin(), names.end(), "obs_test.chrome.outer"),
            names.end());
  EXPECT_NE(std::find(names.begin(), names.end(), "obs_test.chrome \"quoted\""),
            names.end());
}

// ---------------------------------------------------------------------------
// Metrics registry

TEST(MetricsRegistryTest, HandlesAreStable) {
  MetricsRegistry registry;
  Counter* counter = registry.counter("obs_test.count");
  EXPECT_EQ(counter, registry.counter("obs_test.count"));
  counter->Increment();
  counter->Increment(4);
  EXPECT_EQ(counter->value(), 5u);

  Gauge* gauge = registry.gauge("obs_test.gauge");
  EXPECT_EQ(gauge, registry.gauge("obs_test.gauge"));
  gauge->Add(2.5);
  gauge->Add(-1.0);
  EXPECT_DOUBLE_EQ(gauge->value(), 1.5);
  gauge->Set(7.0);
  EXPECT_DOUBLE_EQ(gauge->value(), 7.0);
}

TEST(MetricsRegistryTest, HistogramBucketBoundaries) {
  MetricsRegistry registry;
  LatencyHistogram* histogram = registry.histogram("obs_test.latency");
  const std::vector<double>& bounds = LatencyHistogram::BucketBounds();
  ASSERT_EQ(bounds.size(), 13u);
  EXPECT_DOUBLE_EQ(bounds.front(), 0.001);
  EXPECT_DOUBLE_EQ(bounds.back(), 10.0);

  histogram->Record(0.0005);  // < 1ms: first bucket
  histogram->Record(0.0015);  // 1ms..2ms: second bucket
  histogram->Record(100.0);   // > 10s: overflow bucket
  histogram->Record(-1.0);    // clamped to 0: first bucket

  HistogramSnapshot snap = histogram->Snapshot();
  ASSERT_EQ(snap.buckets.size(), bounds.size() + 1);
  EXPECT_EQ(snap.buckets[0], 2u);
  EXPECT_EQ(snap.buckets[1], 1u);
  EXPECT_EQ(snap.buckets.back(), 1u);
  EXPECT_EQ(snap.count, 4u);
  EXPECT_DOUBLE_EQ(snap.min_seconds, 0.0);
  EXPECT_DOUBLE_EQ(snap.max_seconds, 100.0);
  EXPECT_DOUBLE_EQ(snap.sum_seconds, 0.0005 + 0.0015 + 100.0);
}

TEST(MetricsRegistryTest, SnapshotAndTextExport) {
  MetricsRegistry registry;
  registry.counter("obs_test.b_count")->Increment(3);
  registry.counter("obs_test.a_count")->Increment(1);
  registry.gauge("obs_test.depth")->Set(2.0);
  registry.histogram("obs_test.wait")->Record(0.05);

  MetricsSnapshot snap = registry.Snapshot();
  ASSERT_EQ(snap.counters.size(), 2u);
  // Sorted by name.
  EXPECT_EQ(snap.counters[0].first.Render(), "obs_test.a_count");
  EXPECT_EQ(snap.counters[1].first.Render(), "obs_test.b_count");
  EXPECT_EQ(snap.counters[1].second, 3u);
  ASSERT_EQ(snap.gauges.size(), 1u);
  EXPECT_DOUBLE_EQ(snap.gauges[0].second, 2.0);
  ASSERT_EQ(snap.histograms.size(), 1u);
  EXPECT_EQ(snap.histograms[0].second.count, 1u);

  std::string text = registry.ToText();
  EXPECT_NE(text.find("obs_test.a_count 1"), std::string::npos);
  EXPECT_NE(text.find("obs_test.depth 2"), std::string::npos);
  EXPECT_NE(text.find("obs_test.wait count=1"), std::string::npos);
}

TEST(MetricsRegistryTest, SnapshotJsonRoundTrips) {
  MetricsRegistry registry;
  registry.counter("obs_test.jobs")->Increment(7);
  registry.gauge("obs_test.queue")->Set(3.0);
  registry.histogram("obs_test.exec")->Record(0.2);

  JsonValue doc = ParseJsonOrDie(MetricsSnapshotToJson(registry.Snapshot()));
  EXPECT_DOUBLE_EQ(doc.at("counters").at("obs_test.jobs").number, 7.0);
  EXPECT_DOUBLE_EQ(doc.at("gauges").at("obs_test.queue").number, 3.0);
  const JsonValue& histogram = doc.at("histograms").at("obs_test.exec");
  EXPECT_DOUBLE_EQ(histogram.at("count").number, 1.0);
  EXPECT_EQ(histogram.at("bucket_bounds_seconds").array.size(), 13u);
  EXPECT_EQ(histogram.at("bucket_counts").array.size(), 14u);
}

// ---------------------------------------------------------------------------
// Thread-pool instrumentation

TEST(ThreadPoolInstrumentationTest, NamedPoolPublishesToGlobalRegistry) {
  MetricsRegistry& global = MetricsRegistry::Global();
  const MetricLabels pool_labels = {{"pool", "obs_test"}};
  uint64_t tasks_before = global.counter("pool.tasks", pool_labels)->value();
  constexpr int kTasks = 16;
  {
    ThreadPool pool(2, "obs_test");
    EXPECT_DOUBLE_EQ(global.gauge("pool.workers", pool_labels)->value(), 2.0);
    for (int i = 0; i < kTasks; ++i) {
      pool.Submit([] {});
    }
    pool.Wait();
    EXPECT_EQ(pool.queued(), 0u);
    EXPECT_EQ(pool.active(), 0u);
  }
  EXPECT_EQ(global.counter("pool.tasks", pool_labels)->value(),
            tasks_before + kTasks);
  // Workers deregistered, queue drained.
  EXPECT_DOUBLE_EQ(global.gauge("pool.workers", pool_labels)->value(), 0.0);
  EXPECT_DOUBLE_EQ(global.gauge("pool.queued", pool_labels)->value(), 0.0);
  EXPECT_DOUBLE_EQ(global.gauge("pool.active", pool_labels)->value(), 0.0);
  EXPECT_GE(global.histogram("pool.task_wait_seconds", pool_labels)
                ->Snapshot().count,
            static_cast<uint64_t>(kTasks));
  EXPECT_GE(global.histogram("pool.task_run_seconds", pool_labels)
                ->Snapshot().count,
            static_cast<uint64_t>(kTasks));
}

TEST(ThreadPoolInstrumentationTest, UnnamedPoolStaysOffTheRegistry) {
  MetricsRegistry& global = MetricsRegistry::Global();
  const MetricLabels pool_labels = {{"pool", "obs_test"}};
  uint64_t tasks_before = global.counter("pool.tasks", pool_labels)->value();
  ThreadPool pool(2);
  pool.Submit([] {});
  pool.Wait();
  EXPECT_EQ(global.counter("pool.tasks", pool_labels)->value(), tasks_before);
}

// ---------------------------------------------------------------------------
// Traced end-to-end mini-experiment

TEST(ObsEndToEndTest, TracedEvaluationEmitsPhaseSpans) {
  SecretaSession session;
  ASSERT_OK(session.SetDataset(testing::SmallRtDataset(120)));
  ASSERT_OK(session.AutoGenerateHierarchies());
  WorkloadGenOptions wl;
  wl.num_queries = 10;
  ASSERT_OK(session.GenerateQueryWorkload(wl));
  ASSERT_OK_AND_ASSIGN(
      AlgorithmConfig config,
      ParseAlgorithmConfig(
          "mode=rt rel=Cluster txn=COAT merger=RTmerger k=3 m=2 delta=0.5"));

  Tracer& tracer = Tracer::Get();
  tracer.Reset();
  tracer.Enable();
  ASSERT_OK_AND_ASSIGN(EvaluationReport report, session.Evaluate(config));
  tracer.Disable();
  EXPECT_GE(report.are, 0.0);

  JsonValue trace = ParseJsonOrDie(tracer.ToChromeTraceJson());
  std::vector<std::string> names = SpanNames(trace);
  for (const char* expected :
       {"anonymize", "anonymize.rt", "rt.relational", "rt.transaction",
        "rt.merging", "evaluate", "evaluate.are", "are.batch",
        "algo.Cluster", "algo.Coat"}) {
    EXPECT_NE(std::find(names.begin(), names.end(), expected), names.end())
        << "missing span: " << expected;
  }
  // The report's phase table gained the ARE sub-phase.
  bool has_are_phase = false;
  for (const auto& [name, seconds] : report.run.phases.phases()) {
    if (name == "are") has_are_phase = true;
  }
  EXPECT_TRUE(has_are_phase);
}

}  // namespace
}  // namespace secreta
