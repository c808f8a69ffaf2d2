// Embedded Prometheus scrape endpoint: a tiny HTTP/1.1 server that renders
// the process-global MetricsRegistry in text exposition format.
//
// Deliberately minimal — it exists so `secreta_jobd --metrics-listen PORT`
// can be scraped by a stock Prometheus without a sidecar, not to be a web
// framework. One accept thread serves connections serially (scrapes arrive
// every few seconds, not thousands per second); each request is parsed only
// as far as the request line, answered, and closed (Connection: close).
//
// Routes:
//   GET /metrics  → 200, text/plain; version=0.0.4 (obs/prometheus.h)
//   GET /healthz  → 200, "ok"
//   anything else → 404 (non-GET methods → 405)
//
// Shares the query server's shutdown discipline: Stop() shuts down the
// listen socket to unblock accept, then joins. Idempotent.

#ifndef SECRETA_SERVE_HTTP_METRICS_H_
#define SECRETA_SERVE_HTTP_METRICS_H_

#include <atomic>
#include <cstdint>
#include <string>
#include <thread>

#include "common/status.h"

namespace secreta {

struct HttpMetricsOptions {
  /// TCP port to listen on; 0 = ephemeral (read back via port()).
  uint16_t port = 0;
  /// Loopback by default, same reasoning as ServerOptions::bind_address.
  std::string bind_address = "127.0.0.1";
};

/// \brief Serves GET /metrics from MetricsRegistry::Global(). Thread-safe.
class HttpMetricsServer {
 public:
  explicit HttpMetricsServer(const HttpMetricsOptions& options = {});
  /// Calls Stop().
  ~HttpMetricsServer();

  HttpMetricsServer(const HttpMetricsServer&) = delete;
  HttpMetricsServer& operator=(const HttpMetricsServer&) = delete;

  /// Binds, listens, and starts the serve thread. FailedPrecondition when
  /// already started; InvalidArgument for a bind address that is not an
  /// IPv4 literal; IOError when the port cannot be bound.
  [[nodiscard]] Status Start();

  /// Graceful shutdown; idempotent.
  void Stop();

  /// The bound port (valid after Start; the ephemeral port when port=0).
  uint16_t port() const { return port_.load(std::memory_order_acquire); }
  bool running() const { return running_.load(std::memory_order_acquire); }

 private:
  void ServeLoop();
  void HandleConnection(int fd);

  const HttpMetricsOptions options_;
  std::atomic<bool> running_{false};
  std::atomic<uint16_t> port_{0};
  int listen_fd_ = -1;
  std::thread serve_thread_;
};

/// Builds one full HTTP response for `request_line` (e.g. "GET /metrics
/// HTTP/1.1"), status line through body. Split out of the server so tests
/// can exercise routing without sockets.
std::string HttpMetricsResponseFor(const std::string& request_line);

}  // namespace secreta

#endif  // SECRETA_SERVE_HTTP_METRICS_H_
