#include "serve/http_metrics.h"

#include <netinet/in.h>
#include <netinet/tcp.h>
#include <sys/socket.h>
#include <unistd.h>

#include <cerrno>

#include "common/string_util.h"
#include "obs/metrics_registry.h"
#include "obs/prometheus.h"
#include "serve/socket.h"

namespace secreta {
namespace {

// Scrape requests are one line plus a handful of headers; anything bigger
// is not a scraper.
constexpr size_t kMaxRequestBytes = 8192;
// Scrapers waiting to be accepted; they are served one at a time.
constexpr int kListenBacklog = 8;
// A scraper that stalls longer than this mid-request is dropped.
constexpr double kReadTimeoutSeconds = 5.0;

std::string HttpResponse(const char* status_line, const char* content_type,
                         const std::string& body) {
  std::string out;
  out.reserve(body.size() + 128);
  out += "HTTP/1.1 ";
  out += status_line;
  out += "\r\nContent-Type: ";
  out += content_type;
  out += StrFormat("\r\nContent-Length: %zu", body.size());
  out += "\r\nConnection: close\r\n\r\n";
  out += body;
  return out;
}

}  // namespace

std::string HttpMetricsResponseFor(const std::string& request_line) {
  // "METHOD SP TARGET SP VERSION" — tolerate a missing version (HTTP/0.9
  // style probes) but not a missing target.
  size_t sp1 = request_line.find(' ');
  if (sp1 == std::string::npos) {
    return HttpResponse("400 Bad Request", "text/plain; charset=utf-8",
                        "malformed request line\n");
  }
  size_t sp2 = request_line.find(' ', sp1 + 1);
  const std::string method = request_line.substr(0, sp1);
  std::string target = sp2 == std::string::npos
                           ? request_line.substr(sp1 + 1)
                           : request_line.substr(sp1 + 1, sp2 - sp1 - 1);
  // Scrapers may append a query string (?format=...); route on the path.
  size_t question = target.find('?');
  if (question != std::string::npos) target.resize(question);

  if (method != "GET") {
    return HttpResponse("405 Method Not Allowed",
                        "text/plain; charset=utf-8", "GET only\n");
  }
  if (target == "/metrics") {
    return HttpResponse(
        "200 OK", "text/plain; version=0.0.4; charset=utf-8",
        MetricsSnapshotToPrometheus(MetricsRegistry::Global().Snapshot()));
  }
  if (target == "/healthz") {
    return HttpResponse("200 OK", "text/plain; charset=utf-8", "ok\n");
  }
  return HttpResponse("404 Not Found", "text/plain; charset=utf-8",
                      "unknown path; try /metrics\n");
}

HttpMetricsServer::HttpMetricsServer(const HttpMetricsOptions& options)
    : options_(options) {}

HttpMetricsServer::~HttpMetricsServer() { Stop(); }

Status HttpMetricsServer::Start() {
  if (running_.load(std::memory_order_acquire) || listen_fd_ >= 0) {
    return Status::FailedPrecondition("metrics endpoint already started");
  }
  SECRETA_ASSIGN_OR_RETURN(
      ListeningSocket socket,
      ListenTcp(options_.bind_address, options_.port, kListenBacklog));
  port_.store(socket.port, std::memory_order_release);

  listen_fd_ = socket.fd;
  running_.store(true, std::memory_order_release);
  serve_thread_ = std::thread([this] { ServeLoop(); });
  return Status::OK();
}

void HttpMetricsServer::Stop() {
  running_.store(false, std::memory_order_release);
  if (listen_fd_ >= 0) {
    (void)::shutdown(listen_fd_, SHUT_RDWR);
  }
  if (serve_thread_.joinable()) serve_thread_.join();
  if (listen_fd_ >= 0) {
    (void)::close(listen_fd_);
    listen_fd_ = -1;
  }
}

void HttpMetricsServer::ServeLoop() {
  while (running_.load(std::memory_order_acquire)) {
    int fd = ::accept(listen_fd_, nullptr, nullptr);
    if (fd < 0) {
      if (errno == EINTR) continue;
      if (!running_.load(std::memory_order_acquire)) break;
      continue;
    }
    if (!running_.load(std::memory_order_acquire)) {
      (void)::close(fd);
      break;
    }
    HandleConnection(fd);
    (void)::close(fd);
  }
}

void HttpMetricsServer::HandleConnection(int fd) {
  SetReceiveTimeout(fd, kReadTimeoutSeconds);
  int one = 1;
  (void)::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));

  // Read until the end of headers (blank line) or the size cap. The request
  // line is all that matters; the headers just have to be drained so the
  // peer does not see a reset before reading the response.
  std::string request;
  char buf[1024];
  while (request.size() < kMaxRequestBytes &&
         request.find("\r\n\r\n") == std::string::npos &&
         request.find("\n\n") == std::string::npos) {
    ssize_t n = ::recv(fd, buf, sizeof(buf), 0);
    if (n < 0 && errno == EINTR) continue;
    if (n <= 0) break;
    request.append(buf, static_cast<size_t>(n));
  }
  size_t eol = request.find('\n');
  if (eol == std::string::npos) return;  // no complete request line
  std::string request_line = request.substr(0, eol);
  if (!request_line.empty() && request_line.back() == '\r') {
    request_line.pop_back();
  }
  SendAll(fd, HttpMetricsResponseFor(request_line)).IgnoreError();
}

}  // namespace secreta
