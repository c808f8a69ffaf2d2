// Scripted client for secreta_jobd: one subcommand per invocation, exit 0
// on success. CI's serve-smoke job drives the whole protocol through this
// binary — handshake, anonymized and direct COUNTs, quota hammering, the
// metrics snapshot, and a clean goodbye.
//
//   example_serve_client --port P --token T list
//   example_serve_client --port P --token T count DATASET QUERY [ACCESS]
//   example_serve_client --port P --token T hammer DATASET QUERY N
//   example_serve_client --port P --token T metrics [--watch S [N]]
//   example_serve_client --port P --token T traces
//   example_serve_client --port P --token T ping
//
// Failures print "error: <Code>: <message>" (plus "retry_after_ms=..." when
// the server sent a backpressure hint) to stderr and exit 1.

#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <map>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "serve/client.h"

using namespace secreta;

namespace {

[[noreturn]] void FailStatus(const Status& status) {
  std::fprintf(stderr, "error: %s", status.ToString().c_str());
  if (status.has_retry_after()) {
    std::fprintf(stderr, " retry_after_ms=%d",
                 static_cast<int>(status.retry_after_seconds() * 1000));
  }
  std::fprintf(stderr, "\n");
  std::exit(1);
}

void Check(const Status& status) {
  if (!status.ok()) FailStatus(status);
}

template <typename T>
T Check(Result<T> result) {
  if (!result.ok()) FailStatus(result.status());
  return std::move(result).value();
}

[[noreturn]] void Usage() {
  std::fprintf(stderr,
               "usage: serve_client --port P --token T [--host H] "
               "[--client NAME] SUBCOMMAND\n"
               "  list\n"
               "  count DATASET QUERY [ACCESS]\n"
               "  hammer DATASET QUERY N\n"
               "  metrics [--watch SECONDS [ROUNDS]]\n"
               "  traces\n"
               "  ping\n");
  std::exit(2);
}

// Parses the "name value" lines Metrics() returns into a map for delta math.
std::map<std::string, double> ParseMetricLines(const std::string& text) {
  std::map<std::string, double> out;
  std::istringstream lines(text);
  std::string line;
  while (std::getline(lines, line)) {
    size_t space = line.rfind(' ');
    if (space == std::string::npos || space == 0) continue;
    out[line.substr(0, space)] = std::atof(line.c_str() + space + 1);
  }
  return out;
}

}  // namespace

int main(int argc, char** argv) {
  std::string host = "127.0.0.1";
  std::string token;
  std::string client_name = "serve_client";
  uint16_t port = 0;
  int i = 1;
  for (; i < argc && std::strncmp(argv[i], "--", 2) == 0; ++i) {
    auto next = [&](const char* flag) -> const char* {
      if (i + 1 >= argc) {
        std::fprintf(stderr, "serve_client: %s needs a value\n", flag);
        Usage();
      }
      return argv[++i];
    };
    if (std::strcmp(argv[i], "--host") == 0) {
      host = next("--host");
    } else if (std::strcmp(argv[i], "--port") == 0) {
      port = static_cast<uint16_t>(std::atoi(next("--port")));
    } else if (std::strcmp(argv[i], "--token") == 0) {
      token = next("--token");
    } else if (std::strcmp(argv[i], "--client") == 0) {
      client_name = next("--client");
    } else {
      std::fprintf(stderr, "serve_client: unknown flag %s\n", argv[i]);
      Usage();
    }
  }
  if (i >= argc || port == 0 || token.empty()) Usage();
  std::string command = argv[i++];
  std::vector<std::string> args(argv + i, argv + argc);

  ServeClient client;
  Check(client.Connect(host, port));
  Check(client.Hello(token, client_name));

  if (command == "list") {
    for (const ServeDatasetInfo& info : Check(client.ListDatasets())) {
      std::printf("%s records=%llu version=%llu config=%s\n",
                  info.name.c_str(),
                  static_cast<unsigned long long>(info.records),
                  static_cast<unsigned long long>(info.version),
                  info.config.c_str());
    }
  } else if (command == "count") {
    if (args.size() < 2 || args.size() > 3) Usage();
    ServeClient::CountResult result = Check(client.Count(
        args[0], args[1], args.size() == 3 ? args[2] : std::string()));
    std::printf("count=%.6f cached=%s server_seconds=%.6f\n", result.count,
                result.cached ? "true" : "false", result.server_seconds);
  } else if (command == "hammer") {
    if (args.size() != 3) Usage();
    int n = std::atoi(args[2].c_str());
    int ok = 0, rejected = 0, failed = 0;
    for (int q = 0; q < n; ++q) {
      Result<ServeClient::CountResult> result = client.Count(args[0], args[1]);
      if (result.ok()) {
        ++ok;
      } else if (result.status().code() == StatusCode::kResourceExhausted) {
        ++rejected;
      } else {
        ++failed;
        std::fprintf(stderr, "hammer query %d: %s\n", q,
                     result.status().ToString().c_str());
      }
    }
    std::printf("hammer ok=%d rejected=%d failed=%d\n", ok, rejected, failed);
    if (failed > 0) std::exit(1);
  } else if (command == "metrics") {
    if (!args.empty() && args[0] == "--watch") {
      double interval = args.size() > 1 ? std::atof(args[1].c_str()) : 2.0;
      int rounds = args.size() > 2 ? std::atoi(args[2].c_str()) : 1;
      if (interval <= 0 || rounds < 1) Usage();
      std::map<std::string, double> prev =
          ParseMetricLines(Check(client.Metrics()));
      for (int round = 0; round < rounds; ++round) {
        std::this_thread::sleep_for(
            std::chrono::duration<double>(interval));
        std::map<std::string, double> now =
            ParseMetricLines(Check(client.Metrics()));
        std::printf("-- watch %d/%d (%.1fs) --\n", round + 1, rounds,
                    interval);
        bool changed = false;
        for (const auto& [name, value] : now) {
          auto it = prev.find(name);
          double before = it == prev.end() ? 0 : it->second;
          if (value == before) continue;
          changed = true;
          std::printf("%s %+g (%.1f/s)\n", name.c_str(), value - before,
                      (value - before) / interval);
        }
        if (!changed) std::printf("(no change)\n");
        prev = std::move(now);
      }
    } else {
      std::printf("%s", Check(client.Metrics()).c_str());
    }
  } else if (command == "traces") {
    for (const RequestTrace& trace : Check(client.AdminTraces())) {
      std::printf(
          "trace_id=%llu tenant=%s dataset=%s shape=\"%s\" outcome=%s "
          "run=%.6fs total=%.6fs cached=%s slow=%s error=%s tier=%s\n",
          static_cast<unsigned long long>(trace.trace_id),
          trace.tenant.c_str(), trace.dataset.c_str(),
          trace.query_shape.c_str(), trace.outcome.c_str(),
          trace.run_seconds, trace.total_seconds,
          trace.cached ? "true" : "false", trace.slow ? "true" : "false",
          trace.error ? "true" : "false", trace.kernel_tier.c_str());
    }
  } else if (command == "ping") {
    Check(client.Ping());
    std::printf("pong\n");
  } else {
    Usage();
  }

  Check(client.Bye());
  return 0;
}
