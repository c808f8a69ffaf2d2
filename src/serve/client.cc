#include "serve/client.h"

#include <arpa/inet.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <sys/socket.h>
#include <unistd.h>

#include <cerrno>
#include <cstring>
#include <utility>

#include "common/string_util.h"

namespace secreta {

ServeClient::~ServeClient() { Close(); }

ServeClient::ServeClient(ServeClient&& other) noexcept
    : fd_(other.fd_), next_id_(other.next_id_) {
  other.fd_ = -1;
}

ServeClient& ServeClient::operator=(ServeClient&& other) noexcept {
  if (this != &other) {
    Close();
    fd_ = other.fd_;
    next_id_ = other.next_id_;
    other.fd_ = -1;
  }
  return *this;
}

Status ServeClient::Connect(const std::string& host, uint16_t port) {
  if (fd_ >= 0) return Status::FailedPrecondition("already connected");
  int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  if (fd < 0) {
    return Status::IOError(
        StrFormat("socket failed: %s", std::strerror(errno)));
  }
  struct sockaddr_in addr;
  std::memset(&addr, 0, sizeof(addr));
  addr.sin_family = AF_INET;
  addr.sin_port = htons(port);
  if (::inet_pton(AF_INET, host.c_str(), &addr.sin_addr) != 1) {
    ::close(fd);
    return Status::InvalidArgument(
        StrFormat("bad host address \"%s\"", host.c_str()));
  }
  if (::connect(fd, reinterpret_cast<struct sockaddr*>(&addr),
                sizeof(addr)) < 0) {
    Status status = Status::IOError(
        StrFormat("connect to %s:%u failed: %s", host.c_str(),
                  static_cast<unsigned>(port), std::strerror(errno)));
    ::close(fd);
    return status;
  }
  int one = 1;
  (void)::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
  fd_ = fd;
  return Status::OK();
}

void ServeClient::Close() {
  if (fd_ >= 0) {
    (void)::close(fd_);
    fd_ = -1;
  }
}

Result<ServeResponse> ServeClient::RoundTrip(const ServeRequest& request) {
  if (fd_ < 0) return Status::FailedPrecondition("not connected");
  SECRETA_RETURN_IF_ERROR(WriteFrame(fd_, SerializeServeRequest(request)));
  std::string payload;
  bool clean_eof = false;
  SECRETA_RETURN_IF_ERROR(
      ReadFrame(fd_, kServeMaxFrameBytes, &payload, &clean_eof));
  if (clean_eof) {
    return Status::IOError("server closed the connection before responding");
  }
  return ParseServeResponse(payload);
}

Status ServeClient::Hello(const std::string& token,
                          const std::string& client_name) {
  ServeRequest request;
  request.op = ServeOp::kHello;
  request.id = next_id_++;
  request.version = kServeProtocolVersion;
  request.token = token;
  request.client = client_name;
  return RoundTrip(request).status();
}

Result<ServeClient::CountResult> ServeClient::Count(
    const std::string& dataset, const std::string& query,
    const std::string& access) {
  ServeRequest request;
  request.op = ServeOp::kCount;
  request.id = next_id_++;
  request.dataset = dataset;
  request.query = query;
  request.access = access;
  SECRETA_ASSIGN_OR_RETURN(ServeResponse response, RoundTrip(request));
  CountResult result;
  SECRETA_ASSIGN_OR_RETURN(result.count, response.body.GetNumber("count"));
  SECRETA_ASSIGN_OR_RETURN(result.cached,
                           response.body.GetBoolOr("cached", false));
  SECRETA_ASSIGN_OR_RETURN(result.server_seconds,
                           response.body.GetNumberOr("elapsed_seconds", 0));
  return result;
}

Result<std::vector<ServeDatasetInfo>> ServeClient::ListDatasets() {
  ServeRequest request;
  request.op = ServeOp::kList;
  request.id = next_id_++;
  SECRETA_ASSIGN_OR_RETURN(ServeResponse response, RoundTrip(request));
  const JsonValue* rows = response.body.Find("datasets");
  if (rows == nullptr || !rows->is_array()) {
    return Status::InvalidArgument("list response missing datasets array");
  }
  std::vector<ServeDatasetInfo> out;
  for (const JsonValue& row : rows->elements()) {
    ServeDatasetInfo info;
    SECRETA_ASSIGN_OR_RETURN(info.name, row.GetString("name"));
    SECRETA_ASSIGN_OR_RETURN(info.records, row.GetUintOr("records", 0));
    SECRETA_ASSIGN_OR_RETURN(info.version, row.GetUintOr("version", 0));
    SECRETA_ASSIGN_OR_RETURN(info.config, row.GetStringOr("config", ""));
    out.push_back(std::move(info));
  }
  return out;
}

Result<std::string> ServeClient::Metrics() {
  ServeRequest request;
  request.op = ServeOp::kMetrics;
  request.id = next_id_++;
  SECRETA_ASSIGN_OR_RETURN(ServeResponse response, RoundTrip(request));
  // Re-serializing the parsed subtree would need a writer for JsonValue;
  // the raw "metrics" member is what callers grep anyway, so hand back the
  // canonical serialization of the fields consumers use.
  const JsonValue* metrics = response.body.Find("metrics");
  if (metrics == nullptr || !metrics->is_object()) {
    return Status::InvalidArgument("metrics response missing metrics object");
  }
  // Counters and gauges land as {"counters": {...}, "gauges": {...}};
  // flatten both to "name value" lines (gauges keep their fraction — e.g.
  // serve.cache.hit_ratio).
  std::string text;
  const JsonValue* counters = metrics->Find("counters");
  if (counters != nullptr && counters->is_object()) {
    for (const auto& [name, value] : counters->members()) {
      text += StrFormat("%s %.0f\n", name.c_str(),
                        value.is_number() ? value.number_value() : 0.0);
    }
  }
  const JsonValue* gauges = metrics->Find("gauges");
  if (gauges != nullptr && gauges->is_object()) {
    for (const auto& [name, value] : gauges->members()) {
      text += StrFormat("%s %g\n", name.c_str(),
                        value.is_number() ? value.number_value() : 0.0);
    }
  }
  return text;
}

Result<std::vector<RequestTrace>> ServeClient::AdminTraces() {
  ServeRequest request;
  request.op = ServeOp::kTraces;
  request.id = next_id_++;
  SECRETA_ASSIGN_OR_RETURN(ServeResponse response, RoundTrip(request));
  const JsonValue* rows = response.body.Find("traces");
  if (rows == nullptr || !rows->is_array()) {
    return Status::InvalidArgument("traces response missing traces array");
  }
  std::vector<RequestTrace> out;
  for (const JsonValue& row : rows->elements()) {
    RequestTrace trace;
    SECRETA_ASSIGN_OR_RETURN(trace.trace_id, row.GetUintOr("trace_id", 0));
    SECRETA_ASSIGN_OR_RETURN(trace.tenant, row.GetStringOr("tenant", ""));
    SECRETA_ASSIGN_OR_RETURN(trace.dataset, row.GetStringOr("dataset", ""));
    SECRETA_ASSIGN_OR_RETURN(trace.query_shape,
                             row.GetStringOr("query_shape", ""));
    SECRETA_ASSIGN_OR_RETURN(trace.outcome, row.GetStringOr("outcome", "ok"));
    SECRETA_ASSIGN_OR_RETURN(trace.kernel_tier,
                             row.GetStringOr("kernel_tier", ""));
    SECRETA_ASSIGN_OR_RETURN(trace.run_seconds,
                             row.GetNumberOr("run_seconds", 0));
    SECRETA_ASSIGN_OR_RETURN(trace.total_seconds,
                             row.GetNumberOr("total_seconds", 0));
    SECRETA_ASSIGN_OR_RETURN(trace.cached, row.GetBoolOr("cached", false));
    SECRETA_ASSIGN_OR_RETURN(trace.slow, row.GetBoolOr("slow", false));
    SECRETA_ASSIGN_OR_RETURN(trace.error, row.GetBoolOr("error", false));
    out.push_back(std::move(trace));
  }
  return out;
}

Status ServeClient::Ping() {
  ServeRequest request;
  request.op = ServeOp::kPing;
  request.id = next_id_++;
  return RoundTrip(request).status();
}

Status ServeClient::Bye() {
  ServeRequest request;
  request.op = ServeOp::kBye;
  request.id = next_id_++;
  SECRETA_RETURN_IF_ERROR(RoundTrip(request).status());
  Close();
  return Status::OK();
}

}  // namespace secreta
