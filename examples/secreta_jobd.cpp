// secreta_jobd: the SECRETA serving daemon. Publishes anonymized releases of
// one or more datasets into a DatasetCatalog, then answers COUNT queries
// over TCP (serve protocol, src/serve/) until SIGINT/SIGTERM.
//
//   ./build/examples/secreta_jobd --listen 7474
//   ./build/examples/secreta_jobd --listen 0 --records 500
//       --tenant admin:admin-token:direct
//       --tenant demo:demo-token:anonymized:25   (flags continue one line)
//
// Defaults stage a self-contained demo: one synthetic RT dataset published
// as "demo" under Cluster+Apriori (k=5, m=2), an admin tenant with direct
// access, and an "analyst" tenant limited to anonymized counts at a modest
// rate. Query it with the scripted client:
//
//   ./build/examples/example_serve_client --port 7474
//       --token demo-token count demo "Age:20..39"

#include <chrono>
#include <csignal>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "datagen/synthetic.h"
#include "kernels/kernels.h"
#include "obs/slow_query_log.h"
#include "obs/trace_tail.h"
#include "serve/catalog.h"
#include "serve/http_metrics.h"
#include "serve/server.h"
#include "serve/session.h"

using namespace secreta;

namespace {

volatile std::sig_atomic_t g_stop = 0;

void HandleSignal(int) { g_stop = 1; }

void Fail(const Status& status, const char* what) {
  std::fprintf(stderr, "secreta_jobd: %s: %s\n", what,
               status.ToString().c_str());
  std::exit(1);
}

template <typename T>
T Check(Result<T> result, const char* what) {
  if (!result.ok()) Fail(result.status(), what);
  return std::move(result).value();
}

void Usage() {
  std::fprintf(
      stderr,
      "usage: secreta_jobd --listen PORT [options]\n"
      "  --listen PORT        TCP port (0 = ephemeral, printed at startup)\n"
      "  --bind ADDR          bind address (default 127.0.0.1)\n"
      "  --tenant SPEC        name:token:access[:qps[:burst]]; repeatable.\n"
      "                       default: admin:admin-token:direct and\n"
      "                       demo:demo-token:anonymized:25\n"
      "  --dataset NAME       publish a synthetic dataset under NAME;\n"
      "                       repeatable (default: demo)\n"
      "  --records N          records per synthetic dataset (default 1500)\n"
      "  --seed N             synthetic data seed (default 2014)\n"
      "  --max-connections N  concurrent client connections (default 8)\n"
      "  --deadline SECONDS   per-COUNT deadline, 0 = none (default 5)\n"
      "  --idle-timeout SECONDS  drop idle connections (default 300)\n"
      "  --kernels TIER       force the SIMD kernel tier (scalar, avx2, neon)\n"
      "                       instead of the CPU-detected best; the\n"
      "                       SECRETA_KERNELS env var is a fallback\n"
      "  --metrics-listen PORT   serve Prometheus text format over HTTP at\n"
      "                       /metrics on PORT (0 = ephemeral, printed at\n"
      "                       startup; same bind address as --bind)\n"
      "  --slow-query-log PATH   append slow COUNTs as JSONL to PATH\n"
      "  --slow-query-threshold SECONDS  a COUNT at or above this is slow\n"
      "                       (default 0.25; 0 logs every COUNT)\n"
      "  --trace-tail N       keep the last N slow/error request traces\n"
      "                       (default 256)\n"
      "  --trace-tail-out PATH   dump pinned traces as JSONL on shutdown\n");
  std::exit(2);
}

}  // namespace

int main(int argc, char** argv) {
  bool have_listen = false;
  ServerOptions server_options;
  SyntheticOptions gen;
  gen.num_records = 1500;
  gen.seed = 2014;
  std::vector<std::string> tenant_specs;
  std::vector<std::string> dataset_names;
  bool have_metrics_listen = false;
  HttpMetricsOptions metrics_options;
  std::string slow_query_log_path;
  std::string trace_tail_out;
  size_t trace_tail_capacity = 0;  // 0 = keep the default

  for (int i = 1; i < argc; ++i) {
    auto next = [&](const char* flag) -> const char* {
      if (i + 1 >= argc) {
        std::fprintf(stderr, "secreta_jobd: %s needs a value\n", flag);
        Usage();
      }
      return argv[++i];
    };
    if (std::strcmp(argv[i], "--listen") == 0) {
      server_options.port = static_cast<uint16_t>(std::atoi(next("--listen")));
      have_listen = true;
    } else if (std::strcmp(argv[i], "--bind") == 0) {
      server_options.bind_address = next("--bind");
    } else if (std::strcmp(argv[i], "--tenant") == 0) {
      tenant_specs.push_back(next("--tenant"));
    } else if (std::strcmp(argv[i], "--dataset") == 0) {
      dataset_names.push_back(next("--dataset"));
    } else if (std::strcmp(argv[i], "--records") == 0) {
      gen.num_records = static_cast<size_t>(std::atol(next("--records")));
    } else if (std::strcmp(argv[i], "--seed") == 0) {
      gen.seed = static_cast<uint64_t>(std::atoll(next("--seed")));
    } else if (std::strcmp(argv[i], "--max-connections") == 0) {
      server_options.max_connections =
          static_cast<size_t>(std::atol(next("--max-connections")));
    } else if (std::strcmp(argv[i], "--deadline") == 0) {
      server_options.count_deadline_seconds = std::atof(next("--deadline"));
    } else if (std::strcmp(argv[i], "--idle-timeout") == 0) {
      server_options.idle_timeout_seconds = std::atof(next("--idle-timeout"));
    } else if (std::strcmp(argv[i], "--metrics-listen") == 0) {
      metrics_options.port =
          static_cast<uint16_t>(std::atoi(next("--metrics-listen")));
      have_metrics_listen = true;
    } else if (std::strcmp(argv[i], "--slow-query-log") == 0) {
      slow_query_log_path = next("--slow-query-log");
    } else if (std::strcmp(argv[i], "--slow-query-threshold") == 0) {
      server_options.slow_query_threshold_seconds =
          std::atof(next("--slow-query-threshold"));
    } else if (std::strcmp(argv[i], "--trace-tail") == 0) {
      trace_tail_capacity = static_cast<size_t>(std::atol(next("--trace-tail")));
    } else if (std::strcmp(argv[i], "--trace-tail-out") == 0) {
      trace_tail_out = next("--trace-tail-out");
    } else if (std::strcmp(argv[i], "--kernels") == 0) {
      if (Status s = kernels::SetTier(next("--kernels")); !s.ok()) {
        Fail(s, "set --kernels tier");
      }
    } else {
      std::fprintf(stderr, "secreta_jobd: unknown flag %s\n", argv[i]);
      Usage();
    }
  }
  if (!have_listen) Usage();
  std::printf("simd kernels: %s tier\n", kernels::ActiveTierName());
  if (tenant_specs.empty()) {
    tenant_specs = {"admin:admin-token:direct",
                    "demo:demo-token:anonymized:25"};
  }
  if (dataset_names.empty()) dataset_names = {"demo"};

  TenantRegistry tenants;
  for (const std::string& spec : tenant_specs) {
    TenantConfig config = Check(ParseTenantSpec(spec), "parse --tenant");
    if (Status s = tenants.AddTenant(config); !s.ok()) Fail(s, "add tenant");
    std::printf("tenant %-12s access=%-10s qps=%s\n", config.name.c_str(),
                AccessLevelToString(config.access),
                config.quota_qps > 0
                    ? std::to_string(config.quota_qps).c_str()
                    : "unlimited");
  }

  DatasetCatalog catalog;
  ReleaseOptions release;
  release.config.mode = AnonMode::kRt;
  release.config.relational_algorithm = "Cluster";
  release.config.transaction_algorithm = "Apriori";
  release.config.params.k = 5;
  release.config.params.m = 2;
  for (size_t i = 0; i < dataset_names.size(); ++i) {
    SyntheticOptions per = gen;
    per.seed = gen.seed + i;  // distinct data per published name
    Dataset dataset = Check(GenerateRtDataset(per), "generate dataset");
    auto published = Check(
        catalog.Publish(dataset_names[i], std::move(dataset), release),
        "publish");
    std::printf("published %-12s records=%zu version=%llu config=%s\n",
                published->name().c_str(), published->num_records(),
                static_cast<unsigned long long>(published->version()),
                published->config_label().c_str());
  }

  if (trace_tail_capacity > 0) {
    TraceTail::Global().SetCapacity(trace_tail_capacity);
  }
  if (!slow_query_log_path.empty()) {
    if (Status s = SlowQueryLog::Global().Open(
            slow_query_log_path, server_options.slow_query_threshold_seconds);
        !s.ok()) {
      Fail(s, "open --slow-query-log");
    }
    std::printf("slow-query log: %s (threshold %.3fs)\n",
                slow_query_log_path.c_str(),
                server_options.slow_query_threshold_seconds);
  }

  QueryServer server(&catalog, &tenants, server_options);
  if (Status s = server.Start(); !s.ok()) Fail(s, "start server");

  std::unique_ptr<HttpMetricsServer> metrics_server;
  if (have_metrics_listen) {
    metrics_options.bind_address = server_options.bind_address;
    metrics_server = std::make_unique<HttpMetricsServer>(metrics_options);
    if (Status s = metrics_server->Start(); !s.ok()) {
      Fail(s, "start --metrics-listen endpoint");
    }
    std::printf("metrics endpoint: http://%s:%u/metrics\n",
                metrics_options.bind_address.c_str(),
                static_cast<unsigned>(metrics_server->port()));
  }
  std::printf("secreta_jobd listening on %s:%u (%zu connection slots)\n",
              server_options.bind_address.c_str(),
              static_cast<unsigned>(server.port()),
              server_options.max_connections);
  std::fflush(stdout);

  std::signal(SIGINT, HandleSignal);
  std::signal(SIGTERM, HandleSignal);
  while (g_stop == 0) {
    std::this_thread::sleep_for(std::chrono::milliseconds(200));
  }
  std::printf("signal received; shutting down...\n");
  if (metrics_server) metrics_server->Stop();
  server.Stop();
  if (!trace_tail_out.empty()) {
    if (Status s = TraceTail::Global().WriteJsonl(trace_tail_out); !s.ok()) {
      std::fprintf(stderr, "secreta_jobd: write --trace-tail-out: %s\n",
                   s.ToString().c_str());
    } else {
      std::printf("trace tail: %zu pinned traces -> %s\n",
                  TraceTail::Global().Snapshot().size(),
                  trace_tail_out.c_str());
    }
  }
  SlowQueryLog::Global().Close();
  std::printf("secreta_jobd stopped cleanly\n");
  return 0;
}
