// The query server: a long-lived TCP daemon answering COUNT queries over
// published anonymized releases. Composition of the serving stack:
//
//   QueryServer (accept thread + per-connection handlers on a ThreadPool)
//     └─ protocol.h   framing + request/response JSON
//     └─ session.h    hello handshake → tenant auth → ClientSession (quota)
//     └─ catalog.h    DatasetCatalog → PublishedRelease::CountLine
//
// Threading model: one blocking accept thread plus a named handler pool.
// Each connection occupies one pool worker for its lifetime (blocking reads
// with an idle timeout), and that worker answers the connection's COUNTs
// itself: charge the tenant quota, evaluate, check the deadline, reply. No
// other thread takes part, so in-flight COUNTs are capped at
// max_connections. Connections beyond the pool size are answered with a
// ResourceExhausted error frame (plus retry-after) and closed immediately
// instead of queueing — a parked connection that nobody will serve is
// indistinguishable from a hang to the client.
//
// Shutdown: Stop() flips the running flag, shuts the listen socket down (to
// unblock accept), shuts down every live connection socket (to unblock
// reads), then joins the accept thread and drains the pool. Safe to call
// from a signal-handler-adjacent context (the daemon calls it from a
// self-pipe watcher) and idempotent.

#ifndef SECRETA_SERVE_SERVER_H_
#define SECRETA_SERVE_SERVER_H_

#include <atomic>
#include <cstdint>
#include <memory>
#include <string>
#include <thread>
#include <unordered_set>

#include "common/annotations.h"
#include "common/mutex.h"
#include "common/status.h"
#include "common/stopwatch.h"
#include "common/thread_pool.h"
#include "serve/catalog.h"
#include "serve/protocol.h"
#include "serve/session.h"

namespace secreta {

struct ServerOptions {
  /// TCP port to listen on; 0 = ephemeral (read back via port()).
  uint16_t port = 0;
  /// Bind address. Loopback by default: exposing an anonymization service
  /// beyond the host is a deployment decision, not a default.
  std::string bind_address = "127.0.0.1";
  /// Concurrent connections (handler pool size); Start() rejects 0.
  size_t max_connections = 8;
  /// A connection idle longer than this is closed (0 disables).
  double idle_timeout_seconds = 300;
  /// Per-frame payload ceiling.
  size_t max_frame_bytes = kServeMaxFrameBytes;
  /// A COUNT whose end-to-end frame time reaches this is "slow": it is
  /// pinned in the tail-trace ring and, when a SlowQueryLog is open, written
  /// there too. 0 marks every COUNT slow (useful for capture-everything
  /// debugging and tests).
  double slow_query_threshold_seconds = 0.25;
  /// Wall-clock budget per COUNT evaluation: a count that takes at least
  /// this long is answered DeadlineExceeded. 0 disables the deadline;
  /// Start() rejects a negative value.
  double count_deadline_seconds = 5.0;
};

/// \brief Accepts connections and speaks the serve protocol. Thread-safe.
///
/// Borrows the catalog and tenant registry — they outlive the server (the
/// daemon owns all three and stops the server first).
class QueryServer {
 public:
  QueryServer(DatasetCatalog* catalog, TenantRegistry* tenants,
              const ServerOptions& options = {});
  /// Calls Stop().
  ~QueryServer();

  QueryServer(const QueryServer&) = delete;
  QueryServer& operator=(const QueryServer&) = delete;

  /// Binds, listens, and starts the accept thread. FailedPrecondition when
  /// already started; InvalidArgument for max_connections == 0 or a
  /// negative count deadline; IOError when the port cannot be bound.
  Status Start() SECRETA_EXCLUDES(mutex_);

  /// Graceful shutdown (see file comment). Idempotent; returns after every
  /// connection handler has exited.
  void Stop() SECRETA_EXCLUDES(mutex_);

  /// The bound port (valid after Start; the ephemeral port when port=0).
  uint16_t port() const { return port_; }
  bool running() const { return running_.load(std::memory_order_acquire); }

 private:
  void AcceptLoop();
  void HandleConnection(int fd);
  /// Serves one already-authenticated request. The returned string is the
  /// response payload; a non-OK status becomes an error frame (the
  /// connection survives application errors — only transport errors and
  /// protocol violations close it). `frame_timer` is the connection loop's
  /// per-frame stopwatch: it started before this call (and before the
  /// serve.request fault point fires), so slow-query accounting sees the
  /// full end-to-end time including injected delays.
  Result<std::string> HandleRequest(const ServeRequest& request,
                                    ClientSession& session,
                                    const Stopwatch& frame_timer);
  /// Records one COUNT outcome everywhere the telemetry pipeline looks:
  /// labeled request counter + latency histogram, the tail-trace ring, and
  /// (when slow and a log is open) the slow-query JSONL log — all under one
  /// freshly minted trace id. `run_seconds` is the evaluation time (0 when
  /// the COUNT was refused before evaluating).
  void RecordCountTelemetry(ClientSession& session, const ServeRequest& request,
                            const Status& status, double run_seconds,
                            bool cached, double total_seconds);

  void RegisterConnection(int fd) SECRETA_EXCLUDES(mutex_);
  void UnregisterConnection(int fd) SECRETA_EXCLUDES(mutex_);

  DatasetCatalog* const catalog_;
  TenantRegistry* const tenants_;
  const ServerOptions options_;

  std::atomic<bool> running_{false};
  std::atomic<uint16_t> port_{0};
  int listen_fd_ = -1;
  std::thread accept_thread_;
  std::unique_ptr<ThreadPool> handlers_;
  std::atomic<size_t> active_connections_{0};

  mutable Mutex mutex_;
  /// Live connection sockets; Stop() shuts them down to unblock reads.
  std::unordered_set<int> connections_ SECRETA_GUARDED_BY(mutex_);
};

}  // namespace secreta

#endif  // SECRETA_SERVE_SERVER_H_
