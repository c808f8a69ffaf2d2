// serve_count: anonymized COUNTs against the real secreta_jobd daemon over
// its wire protocol. run.py owns the daemon's lifetime; the subcommands here
// are the pieces around it: the query pool, the closed-loop client, and the
// in-process reference that checks every timed answer.

#include <arpa/inet.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>

#include <atomic>
#include <cstdio>
#include <fstream>
#include <memory>
#include <set>
#include <sstream>
#include <thread>

#include "datagen/synthetic.h"
#include "harness/common.h"
#include "harness/subcommands.h"
#include "query/workload_generator.h"
#include "serve/catalog.h"
#include "serve/client.h"
#include "serve/json.h"
#include "serve/protocol.h"

namespace perfbench {
namespace {

using namespace secreta;

constexpr char kDataset[] = "demo";  // the daemon's default dataset name
constexpr size_t kMaxFrameBytes = 64u << 20;

// What secreta_jobd publishes with --records N --seed S: the synthetic
// dataset with default options, anonymized with its release options.
Dataset DaemonDataset(const Flags& flags) {
  SyntheticOptions gen;
  gen.num_records = static_cast<size_t>(flags.Int("records"));
  gen.seed = static_cast<uint64_t>(flags.Int("daemon-seed"));
  return Check(GenerateRtDataset(gen), "generate dataset");
}

ReleaseOptions DaemonReleaseOptions() {
  ReleaseOptions release;
  release.config.mode = AnonMode::kRt;
  release.config.relational_algorithm = "Cluster";
  release.config.transaction_algorithm = "Apriori";
  release.config.params.k = 5;
  release.config.params.m = 2;
  return release;
}

std::vector<std::string> ReadLines(const std::string& path) {
  std::ifstream in(path);
  if (!in) Die("cannot read " + path);
  std::vector<std::string> lines;
  for (std::string line; std::getline(in, line);) {
    if (!line.empty()) lines.push_back(line);
  }
  return lines;
}

std::vector<std::string> Split(const std::string& list) {
  std::vector<std::string> parts;
  std::stringstream in(list);
  for (std::string part; std::getline(in, part, ',');) {
    if (!part.empty()) parts.push_back(part);
  }
  return parts;
}

// One request/response over a raw connection: the daemon's metrics reply
// carries histograms, which ServeClient::Metrics flattens away.
class RawConnection {
 public:
  explicit RawConnection(uint16_t port) {
    fd_ = ::socket(AF_INET, SOCK_STREAM, 0);
    struct sockaddr_in addr = {};
    addr.sin_family = AF_INET;
    addr.sin_port = htons(port);
    addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
    if (fd_ < 0 || ::connect(fd_, reinterpret_cast<struct sockaddr*>(&addr),
                             sizeof(addr)) != 0) {
      Die("connect for metrics");
    }
  }
  ~RawConnection() { ::close(fd_); }
  RawConnection(const RawConnection&) = delete;
  RawConnection& operator=(const RawConnection&) = delete;

  ServeResponse RoundTrip(const ServeRequest& request) {
    Check(WriteFrame(fd_, SerializeServeRequest(request)), "write frame");
    std::string payload;
    bool eof = false;
    Check(ReadFrame(fd_, kMaxFrameBytes, &payload, &eof), "read frame");
    if (eof) Die("daemon closed the metrics connection");
    return Check(ParseServeResponse(payload), "metrics response");
  }

 private:
  int fd_ = -1;
};

// The series of metric `name` whose labels include every one of `labels`
// (rendered `key="value"`), whatever order the registry renders them in.
const JsonValue* FindSeries(const JsonValue* family, const std::string& name,
                            const std::vector<std::string>& labels) {
  if (family == nullptr || !family->is_object()) return nullptr;
  for (const auto& [key, value] : family->members()) {
    if (key.rfind(name + "{", 0) != 0) continue;
    bool all = true;
    for (const std::string& label : labels) {
      all = all && key.find(label) != std::string::npos;
    }
    if (all) return &value;
  }
  return nullptr;
}

double NumberOf(const JsonValue* value, const std::string& member = "") {
  if (value != nullptr && !member.empty()) value = value->Find(member);
  return value != nullptr && value->is_number() ? value->number_value() : 0;
}

}  // namespace

int ServePool(const Flags& flags) {
  // Distinct query lines over the daemon's schema, at least `size` of them,
  // so that a cyclic stream misses an answer cache a quarter that size.
  Dataset dataset = DaemonDataset(flags);
  const size_t size = static_cast<size_t>(flags.Int("size"));
  std::set<std::string> seen;
  std::vector<std::string> pool;
  for (uint64_t round = 0; pool.size() < size && round < 16; ++round) {
    WorkloadGenOptions options;
    options.num_queries = size;
    options.seed = static_cast<uint64_t>(flags.Int("seed")) * 31 + round;
    Workload workload = Check(GenerateWorkload(dataset, options), "workload");
    for (const CountQuery& query : workload.queries()) {
      std::string line = query.ToString();
      if (pool.size() < size && seen.insert(line).second) {
        pool.push_back(std::move(line));
      }
    }
  }
  if (pool.size() < size) Die("could not draw enough distinct queries");
  std::ofstream out(flags.Str("out"), std::ios::trunc);
  for (const std::string& line : pool) out << line << '\n';
  if (!out) Die("write pool");
  Report report;
  report.Int("queries", static_cast<int64_t>(pool.size()));
  report.Print();
  return 0;
}

int ServeLoad(const Flags& flags) {
  const uint16_t port = static_cast<uint16_t>(flags.Int("port"));
  const std::string token = flags.Str("token");
  const std::vector<std::string> pool = ReadLines(flags.Str("pool"));
  const size_t count = static_cast<size_t>(flags.Int("count"));
  const size_t connections = static_cast<size_t>(flags.Int("connections"));

  struct Sample {
    double start = 0;
    double end = 0;
    bool ok = false;
    double answer = 0;
  };
  std::vector<Sample> samples(count);
  std::vector<std::string> errors(connections);
  std::atomic<size_t> next{0};
  const Usage usage_start = SelfUsage();
  const double start = Now();
  {
    std::vector<std::thread> analysts;
    for (size_t c = 0; c < connections; ++c) {
      analysts.emplace_back([&, c] {
        ServeClient client;
        Status status = client.Connect("127.0.0.1", port);
        if (status.ok()) status = client.Hello(token, "perfbench");
        // A COUNT that cannot be sent fails like one that is refused.
        for (size_t i = next++; i < count; i = next++) {
          Sample& sample = samples[i];
          sample.start = Now();
          if (status.ok()) {
            Result<ServeClient::CountResult> result =
                client.Count(kDataset, pool[i % pool.size()]);
            sample.ok = result.ok();
            if (result.ok()) sample.answer = result->count;
            if (!result.ok() && errors[c].empty()) {
              errors[c] = result.status().ToString();
            }
          }
          sample.end = Now();
        }
        if (!status.ok()) errors[c] = status.ToString();
        if (client.connected()) (void)client.Bye();
      });
    }
    for (std::thread& analyst : analysts) analyst.join();
  }
  const double wall = Now() - start;
  const Usage usage_end = SelfUsage();

  // Server-side view, fetched once after the timed COUNTs.
  RawConnection raw(port);
  ServeRequest hello;
  hello.op = ServeOp::kHello;
  hello.id = 1;
  hello.version = kServeProtocolVersion;
  hello.token = token;
  raw.RoundTrip(hello);
  ServeRequest metrics_request;
  metrics_request.op = ServeOp::kMetrics;
  metrics_request.id = 2;
  ServeResponse metrics = raw.RoundTrip(metrics_request);
  const JsonValue* snapshot = metrics.body.Find("metrics");
  const JsonValue* histograms =
      snapshot == nullptr ? nullptr : snapshot->Find("histograms");
  const JsonValue* counters =
      snapshot == nullptr ? nullptr : snapshot->Find("counters");
  const std::string dataset_label = std::string("dataset=\"") + kDataset + '"';
  const JsonValue* count_seconds = FindSeries(
      histograms, "serve.count_seconds",
      {dataset_label, "tenant=\"" + flags.Str("tenant") + '"'});

  // In a traced session the session is the op: its root span runs from the
  // daemon's exec (timed by run.py on the same monotonic clock), with the
  // start-up and every COUNT as children.
  Tracer tracer(flags.Int("trace") != 0);
  const int64_t op = flags.Int("op");
  const double exec_at = flags.Num("exec-at");
  const int root = tracer.Add("session", "bench", exec_at, Now(), op);
  tracer.Add("secreta_jobd exec->listening", "serve", exec_at,
             flags.Num("ready-at"), op, root);

  std::ofstream out(flags.Str("out"), std::ios::trunc);
  int64_t failed = 0;
  for (size_t i = 0; i < count; ++i) {
    const Sample& s = samples[i];
    char line[128];
    std::snprintf(line, sizeof(line), "%zu %d %.9f %.9f %.17g\n", i,
                  s.ok ? 1 : 0, s.start, s.end, s.answer);
    out << line;
    if (!s.ok) ++failed;
    tracer.Add("COUNT", "serve", s.start, s.end, op, root);
  }
  if (!out) Die("write samples");

  Report report;
  report.Int("attempted", static_cast<int64_t>(count));
  report.Int("failed", failed);
  report.Num("wall_s", wall);
  report.Num("cpu_s", usage_end.cpu_s - usage_start.cpu_s);
  report.Int("involuntary_switches", usage_end.involuntary_switches -
                                         usage_start.involuntary_switches);
  report.Num("server_count_n", NumberOf(count_seconds, "count"));
  report.Num("server_count_sum_s", NumberOf(count_seconds, "sum_seconds"));
  report.Num("cache_hits", NumberOf(FindSeries(counters, "serve.cache.hits",
                                               {dataset_label})));
  report.Num("cache_misses", NumberOf(FindSeries(
                                 counters, "serve.cache.misses",
                                 {dataset_label})));
  std::string first_error;
  for (const std::string& e : errors) {
    if (first_error.empty()) first_error = e;
  }
  report.Str("first_error", first_error);
  if (flags.Int("trace") != 0) {
    report.Map("self_s", tracer.SelfSecondsByLayer());
    tracer.WriteChromeTrace(flags.Str("trace-out"));
  }
  report.Print();
  return 0;
}

int ServeCheck(const Flags& flags) {
  const bool trace = flags.Int("trace") != 0;
  Tracer tracer(trace);
  const std::vector<std::string> pool = ReadLines(flags.Str("pool"));
  Dataset dataset = DaemonDataset(flags);

  const double publish_start = Now();
  std::shared_ptr<const PublishedRelease> release;
  {
    ScopedSpan span(&tracer, "PublishedRelease::Create", "serve", -1);
    release = Check(PublishedRelease::Create(kDataset, 1, std::move(dataset),
                                             DaemonReleaseOptions()),
                    "publish");
  }
  const double publish_s = Now() - publish_start;

  // The reference answer of every query line, as the wire protocol carries
  // it: CountLine's answer, encoded into a response frame and parsed back
  // (the frame prints 12 significant digits). In a traced run the whole
  // stream is replayed, so the means are per COUNT served.
  const size_t stream = trace ? static_cast<size_t>(flags.Int("count"))
                              : std::min<size_t>(pool.size(),
                                                 flags.Int("count"));
  std::vector<double> expected(pool.size(), 0);
  double count_s = 0, codec_s = 0;
  for (size_t i = 0; i < stream; ++i) {
    const std::string& line = pool[i % pool.size()];
    const double t0 = Now();
    PublishedRelease::CountAnswer answer =
        Check(release->CountLine(line, AccessLevel::kAnonymized), line);
    const double t1 = Now();
    // The frames this COUNT costs, serialized and parsed once each way
    // (protocol + json), without the socket.
    ServeRequest request;
    request.op = ServeOp::kCount;
    request.id = i + 1;
    request.dataset = kDataset;
    request.query = line;
    ServeRequest parsed =
        Check(ParseServeRequest(SerializeServeRequest(request)), "codec");
    ServeResponse response = Check(
        ParseServeResponse(CountResponsePayload(
            parsed.id, answer.count, "anonymized", answer.cached, t1 - t0)),
        "codec");
    const double t2 = Now();
    count_s += t1 - t0;
    codec_s += t2 - t1;
    expected[i % pool.size()] = NumberOf(response.body.Find("count"));
  }
  if (trace) {
    const double now = Now();
    tracer.Add("CountLine x" + std::to_string(stream), "serve",
               now - count_s - codec_s, now - codec_s, -1);
    tracer.Add("codec x" + std::to_string(stream), "serve", now - codec_s,
               now, -1);
  }

  int64_t checked = 0, mismatched = 0;
  for (const std::string& path : Split(flags.Str("samples"))) {
    for (const std::string& row : ReadLines(path)) {
      size_t index = 0;
      int ok = 0;
      double s = 0, e = 0, answer = 0;
      if (std::sscanf(row.c_str(), "%zu %d %lf %lf %lf", &index, &ok, &s, &e,
                      &answer) != 5) {
        Die("bad sample row in " + path);
      }
      if (!ok) continue;  // already counted as failed by the client
      ++checked;
      if (answer != expected[index % pool.size()]) ++mismatched;
    }
  }

  Report report;
  report.Num("publish_s", publish_s);
  report.Int("checked", checked);
  report.Int("mismatched", mismatched);
  if (trace) {
    report.Num("catalog_count_ms", 1e3 * count_s / static_cast<double>(stream));
    report.Num("codec_ms", 1e3 * codec_s / static_cast<double>(stream));
    report.Map("self_s", tracer.SelfSecondsByLayer());
    tracer.WriteChromeTrace(flags.Str("trace-out"));
  }
  report.Print();
  return 0;
}

}  // namespace perfbench
