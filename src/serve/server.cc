#include "serve/server.h"

#include <netinet/in.h>
#include <netinet/tcp.h>
#include <sys/socket.h>
#include <unistd.h>

#include <cerrno>
#include <utility>
#include <vector>

#include "common/stopwatch.h"
#include "common/string_util.h"
#include "export/json_export.h"
#include "kernels/kernels.h"
#include "obs/metric_names.h"
#include "obs/metrics_registry.h"
#include "obs/slow_query_log.h"
#include "obs/trace.h"
#include "obs/trace_tail.h"
#include "robust/fault_injection.h"
#include "serve/socket.h"

namespace secreta {
namespace {

// Collapses a COUNT-query line to its predicate shape — clause names with
// the constants wildcarded ("Age:20..39;items:i3 i7" → "Age:*;items:*") —
// so traces and slow-query records group by query structure instead of
// exploding one entry per distinct constant.
std::string QueryShape(const std::string& query_line) {
  std::string shape;
  size_t start = 0;
  while (start <= query_line.size()) {
    size_t end = query_line.find(';', start);
    if (end == std::string::npos) end = query_line.size();
    const std::string clause = query_line.substr(start, end - start);
    if (!shape.empty()) shape += ';';
    size_t colon = clause.find(':');
    if (colon == std::string::npos) {
      shape += clause;
    } else {
      shape.append(clause, 0, colon + 1);
      shape += '*';
    }
    if (end == query_line.size()) break;
    start = end + 1;
  }
  return shape;
}

// Not-yet-accepted connections the listen queue holds.
constexpr int kListenBacklog = 16;

}  // namespace

QueryServer::QueryServer(DatasetCatalog* catalog, TenantRegistry* tenants,
                         const ServerOptions& options)
    : catalog_(catalog), tenants_(tenants), options_(options) {}

QueryServer::~QueryServer() { Stop(); }

Status QueryServer::Start() {
  if (running_.load(std::memory_order_acquire) || listen_fd_ >= 0) {
    return Status::FailedPrecondition("server already started");
  }
  if (options_.max_connections == 0) {
    // The accept loop refuses every connection beyond max_connections, so
    // zero slots would start a server that serves nobody.
    return Status::InvalidArgument("max_connections must be at least 1");
  }
  if (options_.count_deadline_seconds < 0) {
    return Status::InvalidArgument("count_deadline_seconds must be >= 0");
  }
  SECRETA_ASSIGN_OR_RETURN(
      ListeningSocket socket,
      ListenTcp(options_.bind_address, options_.port, kListenBacklog));
  port_.store(socket.port, std::memory_order_release);

  listen_fd_ = socket.fd;
  handlers_ = std::make_unique<ThreadPool>(options_.max_connections, "serve");
  running_.store(true, std::memory_order_release);
  accept_thread_ = std::thread([this] { AcceptLoop(); });
  return Status::OK();
}

void QueryServer::Stop() {
  bool was_running = running_.exchange(false, std::memory_order_acq_rel);
  if (listen_fd_ >= 0) {
    // Unblocks the accept thread; close happens after the join so the fd
    // number cannot be reused mid-shutdown.
    (void)::shutdown(listen_fd_, SHUT_RDWR);
  }
  {
    MutexLock lock(mutex_);
    for (int fd : connections_) (void)::shutdown(fd, SHUT_RDWR);
  }
  if (accept_thread_.joinable()) accept_thread_.join();
  if (handlers_) {
    handlers_->Wait();
    handlers_.reset();  // joins the workers
  }
  if (listen_fd_ >= 0) {
    (void)::close(listen_fd_);
    listen_fd_ = -1;
  }
  if (was_running) {
    MetricsRegistry::Global()
        .gauge(metric_names::kServeActiveConnections)
        ->Set(0);
  }
}

void QueryServer::AcceptLoop() {
  MetricsRegistry& metrics = MetricsRegistry::Global();
  while (running_.load(std::memory_order_acquire)) {
    int fd = ::accept(listen_fd_, nullptr, nullptr);
    if (fd < 0) {
      if (errno == EINTR) continue;
      if (!running_.load(std::memory_order_acquire)) break;
      // Transient accept failure (e.g. EMFILE); keep serving.
      metrics.counter(metric_names::kServeAcceptErrors)->Increment();
      continue;
    }
    if (!running_.load(std::memory_order_acquire)) {
      (void)::close(fd);
      break;
    }
    metrics.counter(metric_names::kServeConnections)->Increment();
    size_t active =
        active_connections_.fetch_add(1, std::memory_order_acq_rel) + 1;
    if (active > options_.max_connections) {
      // All handler workers are occupied by live connections; parking this
      // one in the pool queue would hang the client, so refuse loudly.
      active_connections_.fetch_sub(1, std::memory_order_acq_rel);
      metrics.counter(metric_names::kServeRejectedBusy)->Increment();
      WriteFrame(fd, ErrorResponsePayload(
                         0, Status::ResourceExhausted(
                                "server at connection capacity")
                                .WithRetryAfter(0.5)))
          .IgnoreError();  // refusal is best effort; the socket is closing
      (void)::close(fd);
      continue;
    }
    metrics.gauge(metric_names::kServeActiveConnections)
        ->Set(static_cast<double>(active));
    RegisterConnection(fd);
    handlers_->Submit([this, fd] {
      HandleConnection(fd);
      UnregisterConnection(fd);
      (void)::close(fd);
      size_t now_active =
          active_connections_.fetch_sub(1, std::memory_order_acq_rel) - 1;
      MetricsRegistry::Global()
          .gauge(metric_names::kServeActiveConnections)
          ->Set(static_cast<double>(now_active));
    });
  }
}

void QueryServer::RegisterConnection(int fd) {
  MutexLock lock(mutex_);
  connections_.insert(fd);
}

void QueryServer::UnregisterConnection(int fd) {
  MutexLock lock(mutex_);
  connections_.erase(fd);
}

void QueryServer::HandleConnection(int fd) {
  SECRETA_TRACE_SPAN("serve.connection");
  MetricsRegistry& metrics = MetricsRegistry::Global();
  SetReceiveTimeout(fd, options_.idle_timeout_seconds);
  int one = 1;
  (void)::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));

  std::shared_ptr<ClientSession> session;
  std::string payload;
  while (running_.load(std::memory_order_acquire)) {
    bool clean_eof = false;
    Status read =
        ReadFrame(fd, options_.max_frame_bytes, &payload, &clean_eof);
    if (!read.ok()) {
      // Framing is unrecoverable: report (best effort) and hang up. An idle
      // timeout or truncated frame both land here.
      metrics.counter(metric_names::kServeReadErrors)->Increment();
      WriteFrame(fd, ErrorResponsePayload(0, read)).IgnoreError();
      // The connection is closing; nothing to recover.
      return;
    }
    if (clean_eof) return;

    metrics.counter(metric_names::kServeRequests)->Increment();
    Stopwatch request_timer;
    Result<ServeRequest> parsed = ParseServeRequest(payload);
    std::string response;
    bool close_after = false;
    if (!parsed.ok()) {
      // The frame boundary is intact, so a malformed request is answerable:
      // reply with the parse error and keep the connection.
      metrics.counter(metric_names::kServeBadRequests)->Increment();
      response = ErrorResponsePayload(0, parsed.status());
    } else if (parsed->op == ServeOp::kHello) {
      if (session != nullptr) {
        response = ErrorResponsePayload(
            parsed->id,
            Status::FailedPrecondition("hello already completed"));
      } else if (parsed->version != kServeProtocolVersion) {
        response = ErrorResponsePayload(
            parsed->id,
            Status::FailedPrecondition(StrFormat(
                "protocol version mismatch: client %u, server %u",
                parsed->version, kServeProtocolVersion)));
      } else {
        Result<std::shared_ptr<ClientSession>> auth =
            tenants_->Authenticate(parsed->token);
        if (!auth.ok()) {
          metrics.counter(metric_names::kServeAuthFailures)->Increment();
          response = ErrorResponsePayload(parsed->id, auth.status());
        } else {
          session = std::move(*auth);
          response = HelloResponsePayload(
              parsed->id, session->id(), session->tenant(),
              AccessLevelToString(session->access()), kServeProtocolVersion);
        }
      }
    } else if (session == nullptr) {
      response = ErrorResponsePayload(
          parsed->id, Status::FailedPrecondition(
                          "handshake required: send hello first"));
    } else if (parsed->op == ServeOp::kBye) {
      response = ByeResponsePayload(parsed->id);
      close_after = true;
    } else {
      Result<std::string> handled =
          HandleRequest(*parsed, *session, request_timer);
      if (handled.ok()) {
        response = std::move(*handled);
      } else {
        metrics.counter(metric_names::kServeRequestErrors)->Increment();
        response = ErrorResponsePayload(parsed->id, handled.status());
      }
    }
    metrics.histogram(metric_names::kServeRequestSeconds)
        ->Record(request_timer.ElapsedSeconds());
    if (!WriteFrame(fd, response).ok()) {
      metrics.counter(metric_names::kServeWriteErrors)->Increment();
      return;
    }
    if (close_after) return;
  }
}

void QueryServer::RecordCountTelemetry(ClientSession& session,
                                       const ServeRequest& request,
                                       const Status& status, double run_seconds,
                                       bool cached, double total_seconds) {
  MetricsRegistry& metrics = MetricsRegistry::Global();
  // The common case — a healthy request on a dataset this session has seen
  // before — must not pay label canonicalization or the registry mutex, so
  // the {tenant, dataset} handles are memoized on the session. Failure codes
  // are rare enough that the code="..." counter takes the slow lookup.
  CountMetricHandles& handles = session.count_metric_handles(request.dataset);
  if (handles.requests_ok == nullptr) {
    handles.requests_ok =
        metrics.counter(metric_names::kServeRequests,
                        {{"tenant", session.tenant()},
                         {"dataset", request.dataset},
                         {"code", "ok"}});
    handles.count_seconds = metrics.histogram(
        metric_names::kServeCountSeconds,
        {{"tenant", session.tenant()}, {"dataset", request.dataset}});
    handles.slow_queries = metrics.counter(
        metric_names::kServeSlowQueries,
        {{"tenant", session.tenant()}, {"dataset", request.dataset}});
  }
  if (status.ok()) {
    handles.requests_ok->Increment();
  } else {
    metrics
        .counter(metric_names::kServeRequests,
                 {{"tenant", session.tenant()},
                  {"dataset", request.dataset},
                  {"code", StatusCodeToString(status.code())}})
        ->Increment();
  }
  handles.count_seconds->Record(total_seconds);

  const double threshold = options_.slow_query_threshold_seconds;
  const bool slow = total_seconds >= threshold;
  const bool error = !status.ok();
  if (slow) handles.slow_queries->Increment();

  TraceTail& tail = TraceTail::Global();
  if (!slow && !error) {
    // Healthy and fast: counted as seen, never retained — skip the trace id
    // and all the string assembly below.
    tail.CountHealthy();
    return;
  }

  RequestTrace trace;
  trace.trace_id = tail.NextTraceId();
  trace.tenant = session.tenant();
  trace.dataset = request.dataset;
  trace.query_shape = QueryShape(request.query);
  trace.outcome = status.ok() ? "ok" : StatusCodeToString(status.code());
  trace.kernel_tier = kernels::ActiveTierName();
  trace.run_seconds = run_seconds;
  trace.total_seconds = total_seconds;
  trace.cached = cached;
  trace.slow = slow;
  trace.error = error;

  SlowQueryLog& slow_log = SlowQueryLog::Global();
  if (slow && slow_log.enabled()) {
    SlowQueryRecord record;
    record.trace_id = trace.trace_id;
    record.tenant = trace.tenant;
    record.dataset = trace.dataset;
    record.query_shape = trace.query_shape;
    record.outcome = trace.outcome;
    record.kernel_tier = trace.kernel_tier;
    record.run_seconds = trace.run_seconds;
    record.total_seconds = trace.total_seconds;
    record.threshold_seconds = threshold;
    record.cached = trace.cached;
    slow_log.Record(record);
  }
  tail.Record(std::move(trace));
}

Result<std::string> QueryServer::HandleRequest(const ServeRequest& request,
                                               ClientSession& session,
                                               const Stopwatch& frame_timer) {
  SECRETA_TRACE_SPAN("serve.request");
  SECRETA_FAULT_POINT("serve.request");
  switch (request.op) {
    case ServeOp::kPing:
      return PongResponsePayload(request.id);
    case ServeOp::kMetrics:
      return MetricsResponsePayload(
          request.id,
          MetricsSnapshotToJson(MetricsRegistry::Global().Snapshot()));
    case ServeOp::kTraces: {
      // Pinned traces expose other tenants' names, datasets, and query
      // shapes — operator-only, like direct counts.
      if (!session.Allows(AccessLevel::kDirect)) {
        return Status::PermissionDenied(StrFormat(
            "tenant \"%s\" is not cleared for admin.traces (direct access "
            "required)",
            session.tenant().c_str()));
      }
      return TracesResponsePayload(
          request.id, RequestTracesToJson(TraceTail::Global().Snapshot()));
    }
    case ServeOp::kList: {
      std::vector<ServeDatasetInfo> rows;
      for (const auto& release : catalog_->List()) {
        ServeDatasetInfo info;
        info.name = release->name();
        info.records = release->num_records();
        info.version = release->version();
        info.config = release->config_label();
        rows.push_back(std::move(info));
      }
      return ListResponsePayload(request.id, rows);
    }
    case ServeOp::kCount: {
      AccessLevel access = AccessLevel::kAnonymized;
      if (!request.access.empty()) {
        Result<AccessLevel> parsed = ParseAccessLevel(request.access);
        if (!parsed.ok()) {
          RecordCountTelemetry(session, request, parsed.status(), 0,
                               /*cached=*/false, frame_timer.ElapsedSeconds());
          return parsed.status();
        }
        access = *parsed;
      }
      if (!session.Allows(access)) {
        Status denied = Status::PermissionDenied(StrFormat(
            "tenant \"%s\" is not cleared for %s access",
            session.tenant().c_str(), AccessLevelToString(access)));
        RecordCountTelemetry(session, request, denied, 0, /*cached=*/false,
                             frame_timer.ElapsedSeconds());
        return denied;
      }
      Result<std::shared_ptr<const PublishedRelease>> release =
          catalog_->Get(request.dataset);
      if (!release.ok()) {
        RecordCountTelemetry(session, request, release.status(), 0,
                             /*cached=*/false, frame_timer.ElapsedSeconds());
        return release.status();
      }
      MetricsRegistry& metrics = MetricsRegistry::Global();
      if (Status quota = session.ChargeQuota(); !quota.ok()) {
        metrics.counter(metric_names::kAdmissionQuotaRejected)->Increment();
        RecordCountTelemetry(session, request, quota, 0, /*cached=*/false,
                             frame_timer.ElapsedSeconds());
        return quota;
      }
      metrics.counter(metric_names::kAdmissionAdmitted)->Increment();
      // Evaluated on this handler thread. The deadline is checked after the
      // count returns: a late answer is discarded, never sent.
      Stopwatch timer;
      Result<PublishedRelease::CountAnswer> answer =
          (*release)->CountLine(request.query, access);
      const double run_seconds = timer.ElapsedSeconds();
      Status status = answer.status();
      const double deadline = options_.count_deadline_seconds;
      if (status.ok() && deadline > 0 && run_seconds >= deadline) {
        metrics.counter(metric_names::kAdmissionDeadlineExceeded)->Increment();
        status = Status::DeadlineExceeded("count ran past its deadline");
      }
      const bool cached = status.ok() && answer->cached;
      RecordCountTelemetry(session, request, status, run_seconds, cached,
                           frame_timer.ElapsedSeconds());
      if (!status.ok()) return status;
      return CountResponsePayload(request.id, answer->count,
                                  AccessLevelToString(access), cached,
                                  run_seconds);
    }
    case ServeOp::kHello:
    case ServeOp::kBye:
      break;  // handled by the connection loop
  }
  return Status::Internal("request op escaped the connection loop");
}

}  // namespace secreta
