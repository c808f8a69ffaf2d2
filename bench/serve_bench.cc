// SERVB — the serving benchmark: sustained anonymized-COUNT throughput of
// the full online stack (TCP framing -> handshake -> quota -> catalog ->
// indexed estimation) under concurrent clients. Emits BENCH_service.json
// (CWD) with every number.
//
// Two published releases are measured: "bench" with the answer LRU disabled
// (every query pays estimation against the recoding — the honest query-
// engine throughput) and "bench_cached" with the LRU on (steady-state
// dashboard traffic). Correctness rides along: every concurrent client
// must receive byte-identical counts to a serial warm-up pass, and the
// anonymized/direct split is spot-checked against the in-process release.
//
// Default ("full") mode runs 8 clients x 200 queries, then 3 paired
// telemetry-off/on reps of at least 1 s per side, and exits nonzero unless
// the concurrent uncached run sustains >= 100 queries/second with zero
// failures and zero mismatches and the best telemetry-on rep is within 5%
// of the best telemetry-off one. `--quick` shrinks sizes for CI smoke (one
// rep pair of 25 COUNTs per client, no QPS or overhead gate: CI machines
// are noisy; correctness still gates).

#include <atomic>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>
#include <thread>
#include <vector>

#include "bench/bench_util.h"
#include "common/stopwatch.h"
#include "csv/csv.h"
#include "datagen/synthetic.h"
#include "export/json_export.h"
#include "obs/metric_names.h"
#include "obs/metrics_registry.h"
#include "obs/slow_query_log.h"
#include "query/workload_generator.h"
#include "serve/catalog.h"
#include "serve/client.h"
#include "serve/server.h"
#include "serve/session.h"

using namespace secreta;

namespace {

struct RunStats {
  double seconds = 0;
  uint64_t ok = 0;
  uint64_t failed = 0;
  uint64_t mismatched = 0;
  double qps() const { return seconds > 0 ? ok / seconds : 0; }
};

// Fires `clients` threads, each with its own connection, each issuing
// COUNTs round-robin over `queries`: `per_client` of them, and then more
// until `min_seconds` have passed since the start. Answers are compared
// byte-for-byte (as doubles parsed from identical wire strings) against
// `reference`.
RunStats HammerConcurrently(uint16_t port, const std::string& token,
                            const std::string& dataset,
                            const std::vector<std::string>& queries,
                            const std::vector<double>& reference,
                            size_t clients, size_t per_client,
                            double min_seconds = 0) {
  std::atomic<uint64_t> ok{0}, failed{0}, mismatched{0};
  Stopwatch watch;
  std::vector<std::thread> threads;
  threads.reserve(clients);
  for (size_t c = 0; c < clients; ++c) {
    threads.emplace_back([&, c] {
      ServeClient client;
      if (!client.Connect("127.0.0.1", port).ok() ||
          !client.Hello(token, "serve_bench").ok()) {
        failed.fetch_add(per_client);
        return;
      }
      for (size_t q = 0;
           q < per_client || watch.ElapsedSeconds() < min_seconds; ++q) {
        size_t which = (c * 31 + q) % queries.size();
        Result<ServeClient::CountResult> result =
            client.Count(dataset, queries[which]);
        if (!result.ok()) {
          failed.fetch_add(1);
          continue;
        }
        if (result->count != reference[which]) {
          mismatched.fetch_add(1);
          continue;
        }
        ok.fetch_add(1);
      }
      client.Bye().IgnoreError();  // bench teardown; server closes anyway
    });
  }
  for (std::thread& t : threads) t.join();
  RunStats stats;
  stats.seconds = watch.ElapsedSeconds();
  stats.ok = ok.load();
  stats.failed = failed.load();
  stats.mismatched = mismatched.load();
  return stats;
}

}  // namespace

int main(int argc, char** argv) {
  bool quick = false;
  size_t clients = 8;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--quick") == 0) quick = true;
    if (std::strcmp(argv[i], "--clients") == 0 && i + 1 < argc) {
      clients = static_cast<size_t>(std::atol(argv[++i]));
    }
  }
  const size_t records = quick ? 800 : 5000;
  const size_t pool_queries = quick ? 16 : 48;
  const size_t per_client = quick ? 25 : 200;

  printf("== SERVB: serving throughput (%zu records, %zu clients, %zu "
         "queries each)%s ==\n",
         records, clients, per_client, quick ? " [quick]" : "");

  // --- Stage: dataset, workload pool, two releases, tenants, server --------
  SyntheticOptions gen;
  gen.num_records = records;
  gen.seed = 2014;
  Dataset dataset = bench::CheckOk(GenerateRtDataset(gen), "generate");
  WorkloadGenOptions wopts;
  wopts.num_queries = pool_queries;
  wopts.seed = 7;
  Workload workload =
      bench::CheckOk(GenerateWorkload(dataset, wopts), "workload");
  std::vector<std::string> queries;
  for (const CountQuery& query : workload.queries()) {
    queries.push_back(query.ToString());
  }

  ReleaseOptions uncached;
  uncached.config.mode = AnonMode::kRt;
  uncached.config.relational_algorithm = "Cluster";
  uncached.config.transaction_algorithm = "Apriori";
  uncached.config.params.k = 5;
  uncached.config.params.m = 2;
  uncached.answer_cache_capacity = 0;
  ReleaseOptions cached = uncached;
  cached.answer_cache_capacity = 1024;

  DatasetCatalog catalog;
  Stopwatch publish_watch;
  bench::CheckOk(
      catalog.Publish("bench", std::move(dataset), uncached).status(),
      "publish");
  double publish_seconds = publish_watch.ElapsedSeconds();
  Dataset dataset2 = bench::CheckOk(GenerateRtDataset(gen), "generate2");
  auto release_cached = bench::CheckOk(
      catalog.Publish("bench_cached", std::move(dataset2), cached),
      "publish cached");

  TenantRegistry tenants;
  TenantConfig bench_tenant;
  bench_tenant.name = "bench";
  bench_tenant.token = "bench-token";
  bench_tenant.access = AccessLevel::kDirect;  // also used for oracle checks
  bench::CheckOk(tenants.AddTenant(bench_tenant), "tenant");

  ServerOptions server_options;
  server_options.port = 0;  // ephemeral
  server_options.max_connections = clients + 1;
  server_options.count_deadline_seconds = 30;
  QueryServer server(&catalog, &tenants, server_options);
  bench::CheckOk(server.Start(), "start server");
  printf("server on port %u, published \"bench\" in %.2fs\n",
         static_cast<unsigned>(server.port()), publish_seconds);

  // --- Serial warm-up: reference answers + serial QPS baseline -------------
  std::vector<double> reference(queries.size());
  double serial_qps = 0;
  {
    ServeClient client;
    bench::CheckOk(client.Connect("127.0.0.1", server.port()), "connect");
    bench::CheckOk(client.Hello("bench-token", "warmup"), "hello");
    // Spot-check the access split: direct == in-process direct answer.
    ServeClient::CountResult direct = bench::CheckOk(
        client.Count("bench", queries[0], "direct"), "direct count");
    PublishedRelease::CountAnswer oracle = bench::CheckOk(
        bench::CheckOk(catalog.Get("bench"), "get")
            ->CountLine(queries[0], AccessLevel::kDirect),
        "oracle");
    // The wire carries %.12g; exact counts are integers, so equality holds.
    if (direct.count != oracle.count) {
      fprintf(stderr, "FAIL: direct count %.17g != oracle %.17g\n",
              direct.count, oracle.count);
      return 1;
    }
    Stopwatch watch;
    for (size_t i = 0; i < queries.size(); ++i) {
      reference[i] = bench::CheckOk(client.Count("bench", queries[i]),
                                    "reference count")
                         .count;
    }
    serial_qps = queries.size() / watch.ElapsedSeconds();
    // Warm the cached release too, so its timed run measures LRU hits.
    for (const std::string& query : queries) {
      (void)bench::CheckOk(client.Count("bench_cached", query), "warm cache");
    }
    bench::CheckOk(client.Bye(), "bye");
  }

  // --- Timed concurrent runs -----------------------------------------------
  RunStats uncached_run =
      HammerConcurrently(server.port(), "bench-token", "bench", queries,
                         reference, clients, per_client);
  RunStats cached_run =
      HammerConcurrently(server.port(), "bench-token", "bench_cached",
                         queries, reference, clients, per_client);

  server.Stop();

  // --- Telemetry-overhead runs ---------------------------------------------
  // Same uncached workload, alternating between a telemetry-off server
  // (default slow threshold, nothing ever pinned or logged) and a
  // telemetry-on server that treats every COUNT as slow (threshold 0):
  // every query is pinned in the trace tail AND written to the slow-query
  // JSONL log. The runs are paired back-to-back and the gate compares the
  // best of each side, which cancels process-lifetime drift (allocator
  // state, scheduler history, frequency scaling) that a single early
  // baseline vs. late telemetry run would misattribute to telemetry; what
  // remains is the true cost of the pipeline at its most verbose setting.
  // In full mode each rep lasts at least a second per side: a fixed
  // 8 x 200 COUNTs took under 0.1 s at 20k qps, short enough for one
  // scheduler hiccup to move a side by 15%.
  ServerOptions telemetry_options = server_options;
  telemetry_options.slow_query_threshold_seconds = 0;
  const std::string slow_log_path = "BENCH_slow_queries.jsonl";
  bench::CheckOk(SlowQueryLog::Global().Open(slow_log_path, 0),
                 "open slow-query log");
  const int telemetry_reps = quick ? 1 : 3;
  const double telemetry_rep_seconds = quick ? 0 : 1.0;
  RunStats baseline_run;   // best-qps rep, telemetry off
  RunStats telemetry_run;  // best-qps rep, telemetry on
  RunStats paired_totals;  // ok/failed/mismatched over every paired run
  for (int rep = 0; rep < telemetry_reps; ++rep) {
    {
      QueryServer off_server(&catalog, &tenants, server_options);
      bench::CheckOk(off_server.Start(), "start telemetry-off server");
      RunStats run = HammerConcurrently(
          off_server.port(), "bench-token", "bench", queries, reference,
          clients, per_client, telemetry_rep_seconds);
      off_server.Stop();
      if (run.qps() > baseline_run.qps()) baseline_run = run;
      paired_totals.ok += run.ok;
      paired_totals.failed += run.failed;
      paired_totals.mismatched += run.mismatched;
    }
    {
      QueryServer on_server(&catalog, &tenants, telemetry_options);
      bench::CheckOk(on_server.Start(), "start telemetry-on server");
      RunStats run = HammerConcurrently(
          on_server.port(), "bench-token", "bench", queries, reference,
          clients, per_client, telemetry_rep_seconds);
      on_server.Stop();
      if (run.qps() > telemetry_run.qps()) telemetry_run = run;
      paired_totals.ok += run.ok;
      paired_totals.failed += run.failed;
      paired_totals.mismatched += run.mismatched;
    }
  }
  // Records accumulate across every telemetry-on rep (the log stays open).
  uint64_t slow_records = SlowQueryLog::Global().records_written();
  SlowQueryLog::Global().Close();
  const double telemetry_overhead =
      baseline_run.qps() > 0 ? 1.0 - telemetry_run.qps() / baseline_run.qps()
                             : 0;

  uint64_t cache_hits = 0;
  for (const auto& [key, value] :
       MetricsRegistry::Global().Snapshot().counters) {
    // Summed over the per-dataset label values.
    if (key.name == metric_names::kServeCacheHits) cache_hits += value;
  }

  printf("serial            %8.0f qps\n", serial_qps);
  printf("concurrent        %8.0f qps  (ok=%llu failed=%llu mismatched=%llu)\n",
         uncached_run.qps(), (unsigned long long)uncached_run.ok,
         (unsigned long long)uncached_run.failed,
         (unsigned long long)uncached_run.mismatched);
  printf("concurrent+cache  %8.0f qps  (lru hits=%llu)\n", cached_run.qps(),
         (unsigned long long)cache_hits);
  printf("telemetry-off     %8.0f qps  (best of %d paired reps, %.2fs)\n",
         baseline_run.qps(), telemetry_reps, baseline_run.seconds);
  printf("telemetry-on      %8.0f qps  (%.2fs, overhead %+.1f%%, %llu slow "
         "records)\n",
         telemetry_run.qps(), telemetry_run.seconds, telemetry_overhead * 100.0,
         (unsigned long long)slow_records);

  JsonWriter w;
  w.BeginObject();
  w.Key("records");
  w.Int(static_cast<int64_t>(records));
  w.Key("pool_queries");
  w.Int(static_cast<int64_t>(pool_queries));
  w.Key("clients");
  w.Int(static_cast<int64_t>(clients));
  w.Key("queries_per_client");
  w.Int(static_cast<int64_t>(per_client));
  w.Key("quick");
  w.Bool(quick);
  w.Key("publish_seconds");
  w.Number(publish_seconds);
  w.Key("serial_qps");
  w.Number(serial_qps);
  w.Key("concurrent_qps");
  w.Number(uncached_run.qps());
  w.Key("concurrent_cached_qps");
  w.Number(cached_run.qps());
  w.Key("telemetry_baseline_qps");
  w.Number(baseline_run.qps());
  w.Key("telemetry_qps");
  w.Number(telemetry_run.qps());
  w.Key("telemetry_overhead_fraction");
  w.Number(telemetry_overhead);
  w.Key("telemetry_reps");
  w.Int(telemetry_reps);
  w.Key("telemetry_rep_min_seconds");
  w.Number(telemetry_rep_seconds);
  w.Key("slow_query_records");
  w.Int(static_cast<int64_t>(slow_records));
  w.Key("queries_ok");
  w.Int(static_cast<int64_t>(uncached_run.ok + cached_run.ok +
                             paired_totals.ok));
  w.Key("queries_failed");
  w.Int(static_cast<int64_t>(uncached_run.failed + cached_run.failed +
                             paired_totals.failed));
  w.Key("queries_mismatched");
  w.Int(static_cast<int64_t>(uncached_run.mismatched + cached_run.mismatched +
                             paired_totals.mismatched));
  w.Key("answer_cache_hits");
  w.Int(static_cast<int64_t>(cache_hits));
  w.EndObject();
  const std::string path = "BENCH_service.json";
  bench::CheckOk(csv::WriteFile(path, w.TakeString()), "json");
  printf("wrote %s\n", path.c_str());

  const uint64_t all_failed =
      uncached_run.failed + cached_run.failed + paired_totals.failed;
  const uint64_t all_mismatched = uncached_run.mismatched +
                                  cached_run.mismatched +
                                  paired_totals.mismatched;
  if (all_failed > 0) {
    fprintf(stderr, "FAIL: %llu queries failed\n",
            (unsigned long long)all_failed);
    return 1;
  }
  if (all_mismatched > 0) {
    fprintf(stderr, "FAIL: %llu counts diverged from the serial reference\n",
            (unsigned long long)all_mismatched);
    return 1;
  }
  if (!quick && uncached_run.qps() < 100.0) {
    fprintf(stderr, "FAIL: sustained %.0f qps < required 100 qps\n",
            uncached_run.qps());
    return 1;
  }
  if (!quick && telemetry_overhead > 0.05) {
    fprintf(stderr,
            "FAIL: telemetry-on run lost %.1f%% qps vs telemetry-off "
            "(limit 5%%)\n",
            telemetry_overhead * 100.0);
    return 1;
  }
  (void)release_cached;
  return 0;
}
