#include "serve/protocol.h"

#include <sys/socket.h>

#include <cerrno>
#include <cstring>

#include "common/string_util.h"
#include "export/json_writer.h"
#include "serve/socket.h"

namespace secreta {
namespace {

// Receives exactly `len` bytes. `*got` reports how many arrived before an
// EOF; the caller distinguishes clean EOF (got == 0 on the length prefix)
// from a truncated frame.
Status RecvExact(int fd, char* data, size_t len, size_t* got) {
  *got = 0;
  while (*got < len) {
    ssize_t n = ::recv(fd, data + *got, len - *got, 0);
    if (n < 0) {
      if (errno == EINTR) continue;
      if (errno == EAGAIN || errno == EWOULDBLOCK) {
        return Status::DeadlineExceeded("socket receive timed out");
      }
      return Status::IOError(
          StrFormat("recv failed: %s", std::strerror(errno)));
    }
    if (n == 0) return Status::OK();  // EOF; caller inspects *got
    *got += static_cast<size_t>(n);
  }
  return Status::OK();
}

}  // namespace

Result<uint32_t> DecodeFrameLength(std::string_view header,
                                   size_t max_frame_bytes) {
  if (header.size() != 4) {
    return Status::InvalidArgument("frame header must be exactly 4 bytes");
  }
  uint32_t len = (static_cast<uint32_t>(static_cast<unsigned char>(header[0]))
                  << 24) |
                 (static_cast<uint32_t>(static_cast<unsigned char>(header[1]))
                  << 16) |
                 (static_cast<uint32_t>(static_cast<unsigned char>(header[2]))
                  << 8) |
                 static_cast<uint32_t>(static_cast<unsigned char>(header[3]));
  if (len == 0) {
    return Status::InvalidArgument("zero-length frame");
  }
  if (len > max_frame_bytes) {
    return Status::InvalidArgument(
        StrFormat("frame of %u bytes exceeds limit %zu", len,
                  max_frame_bytes));
  }
  return len;
}

Status WriteFrame(int fd, std::string_view payload) {
  if (payload.size() > 0xFFFFFFFFu) {
    return Status::InvalidArgument("frame payload exceeds 32-bit length");
  }
  uint32_t len = static_cast<uint32_t>(payload.size());
  char header[4] = {static_cast<char>((len >> 24) & 0xFF),
                    static_cast<char>((len >> 16) & 0xFF),
                    static_cast<char>((len >> 8) & 0xFF),
                    static_cast<char>(len & 0xFF)};
  SECRETA_RETURN_IF_ERROR(SendAll(fd, std::string_view(header, sizeof(header))));
  return SendAll(fd, payload);
}

Status ReadFrame(int fd, size_t max_frame_bytes, std::string* payload,
                 bool* clean_eof) {
  payload->clear();
  *clean_eof = false;
  char header[4];
  size_t got = 0;
  SECRETA_RETURN_IF_ERROR(RecvExact(fd, header, sizeof(header), &got));
  if (got == 0) {
    *clean_eof = true;
    return Status::OK();
  }
  if (got < sizeof(header)) {
    return Status::IOError("connection closed mid frame header");
  }
  SECRETA_ASSIGN_OR_RETURN(
      uint32_t len,
      DecodeFrameLength(std::string_view(header, sizeof(header)),
                        max_frame_bytes));
  payload->resize(len);
  SECRETA_RETURN_IF_ERROR(RecvExact(fd, payload->data(), len, &got));
  if (got < len) {
    payload->clear();
    return Status::IOError(
        StrFormat("connection closed mid frame (%zu of %u bytes)", got, len));
  }
  return Status::OK();
}

const char* ServeOpToString(ServeOp op) {
  switch (op) {
    case ServeOp::kHello:
      return "hello";
    case ServeOp::kCount:
      return "count";
    case ServeOp::kList:
      return "list";
    case ServeOp::kMetrics:
      return "metrics";
    case ServeOp::kTraces:
      return "admin.traces";
    case ServeOp::kPing:
      return "ping";
    case ServeOp::kBye:
      return "bye";
  }
  return "unknown";
}

Result<ServeOp> ParseServeOp(const std::string& name) {
  if (name == "hello") return ServeOp::kHello;
  if (name == "count") return ServeOp::kCount;
  if (name == "list") return ServeOp::kList;
  if (name == "metrics") return ServeOp::kMetrics;
  if (name == "admin.traces") return ServeOp::kTraces;
  if (name == "ping") return ServeOp::kPing;
  if (name == "bye") return ServeOp::kBye;
  return Status::InvalidArgument(StrFormat("unknown op \"%s\"", name.c_str()));
}

Result<ServeRequest> ParseServeRequest(const std::string& payload) {
  SECRETA_ASSIGN_OR_RETURN(JsonValue doc, JsonValue::Parse(payload));
  if (!doc.is_object()) {
    return Status::InvalidArgument("request must be a JSON object");
  }
  ServeRequest request;
  SECRETA_ASSIGN_OR_RETURN(std::string op_name, doc.GetString("op"));
  SECRETA_ASSIGN_OR_RETURN(request.op, ParseServeOp(op_name));
  SECRETA_ASSIGN_OR_RETURN(request.id, doc.GetUintOr("id", 0));
  switch (request.op) {
    case ServeOp::kHello: {
      SECRETA_ASSIGN_OR_RETURN(uint64_t version, doc.GetUint("version"));
      if (version > 0xFFFFFFFFu) {
        return Status::InvalidArgument("version out of range");
      }
      request.version = static_cast<uint32_t>(version);
      SECRETA_ASSIGN_OR_RETURN(request.token, doc.GetString("token"));
      SECRETA_ASSIGN_OR_RETURN(request.client, doc.GetStringOr("client", ""));
      break;
    }
    case ServeOp::kCount: {
      SECRETA_ASSIGN_OR_RETURN(request.dataset, doc.GetString("dataset"));
      SECRETA_ASSIGN_OR_RETURN(request.query, doc.GetString("query"));
      SECRETA_ASSIGN_OR_RETURN(request.access, doc.GetStringOr("access", ""));
      if (request.dataset.empty()) {
        return Status::InvalidArgument("dataset must be non-empty");
      }
      if (request.query.empty()) {
        return Status::InvalidArgument("query must be non-empty");
      }
      break;
    }
    case ServeOp::kList:
    case ServeOp::kMetrics:
    case ServeOp::kTraces:
    case ServeOp::kPing:
    case ServeOp::kBye:
      break;
  }
  return request;
}

std::string SerializeServeRequest(const ServeRequest& request) {
  JsonWriter w;
  w.BeginObject();
  w.Key("op");
  w.String(ServeOpToString(request.op));
  w.Key("id");
  w.Int(static_cast<int64_t>(request.id));
  switch (request.op) {
    case ServeOp::kHello:
      w.Key("version");
      w.Int(request.version);
      w.Key("token");
      w.String(request.token);
      if (!request.client.empty()) {
        w.Key("client");
        w.String(request.client);
      }
      break;
    case ServeOp::kCount:
      w.Key("dataset");
      w.String(request.dataset);
      w.Key("query");
      w.String(request.query);
      if (!request.access.empty()) {
        w.Key("access");
        w.String(request.access);
      }
      break;
    case ServeOp::kList:
    case ServeOp::kMetrics:
    case ServeOp::kTraces:
    case ServeOp::kPing:
    case ServeOp::kBye:
      break;
  }
  w.EndObject();
  return w.TakeString();
}

namespace {

// Opens the common response preamble: {"ok":true,"id":N,"op":"..."
JsonWriter OkPreamble(uint64_t id, const char* op) {
  JsonWriter w;
  w.BeginObject();
  w.Key("ok");
  w.Bool(true);
  w.Key("id");
  w.Int(static_cast<int64_t>(id));
  w.Key("op");
  w.String(op);
  return w;
}

}  // namespace

std::string HelloResponsePayload(uint64_t id, uint64_t session_id,
                                 const std::string& tenant,
                                 const std::string& access,
                                 uint32_t server_version) {
  JsonWriter w = OkPreamble(id, "hello");
  w.Key("session");
  w.Int(static_cast<int64_t>(session_id));
  w.Key("tenant");
  w.String(tenant);
  w.Key("access");
  w.String(access);
  w.Key("version");
  w.Int(server_version);
  w.EndObject();
  return w.TakeString();
}

std::string CountResponsePayload(uint64_t id, double count,
                                 const std::string& access, bool cached,
                                 double elapsed_seconds) {
  JsonWriter w = OkPreamble(id, "count");
  w.Key("count");
  w.Number(count);
  w.Key("access");
  w.String(access);
  w.Key("cached");
  w.Bool(cached);
  w.Key("elapsed_seconds");
  w.Number(elapsed_seconds);
  w.EndObject();
  return w.TakeString();
}

std::string ListResponsePayload(
    uint64_t id, const std::vector<ServeDatasetInfo>& datasets) {
  JsonWriter w = OkPreamble(id, "list");
  w.Key("datasets");
  w.BeginArray();
  for (const ServeDatasetInfo& info : datasets) {
    w.BeginObject();
    w.Key("name");
    w.String(info.name);
    w.Key("records");
    w.Int(static_cast<int64_t>(info.records));
    w.Key("version");
    w.Int(static_cast<int64_t>(info.version));
    w.Key("config");
    w.String(info.config);
    w.EndObject();
  }
  w.EndArray();
  w.EndObject();
  return w.TakeString();
}

std::string MetricsResponsePayload(uint64_t id, const std::string& body_json) {
  // body_json is already a serialized object; splice it in verbatim.
  JsonWriter w = OkPreamble(id, "metrics");
  w.EndObject();
  std::string out = w.TakeString();
  out.pop_back();  // drop closing '}'
  out += ",\"metrics\":";
  out += body_json.empty() ? "{}" : body_json;
  out += "}";
  return out;
}

std::string TracesResponsePayload(uint64_t id, const std::string& traces_json) {
  // traces_json is already a serialized array; splice it in verbatim.
  JsonWriter w = OkPreamble(id, "admin.traces");
  w.EndObject();
  std::string out = w.TakeString();
  out.pop_back();  // drop closing '}'
  out += ",\"traces\":";
  out += traces_json.empty() ? "[]" : traces_json;
  out += "}";
  return out;
}

std::string PongResponsePayload(uint64_t id) {
  JsonWriter w = OkPreamble(id, "pong");
  w.EndObject();
  return w.TakeString();
}

std::string ByeResponsePayload(uint64_t id) {
  JsonWriter w = OkPreamble(id, "bye");
  w.EndObject();
  return w.TakeString();
}

std::string ErrorResponsePayload(uint64_t id, const Status& status) {
  JsonWriter w;
  w.BeginObject();
  w.Key("ok");
  w.Bool(false);
  w.Key("id");
  w.Int(static_cast<int64_t>(id));
  w.Key("error");
  w.String(StatusCodeToString(status.code()));
  w.Key("message");
  w.String(status.message());
  if (status.has_retry_after()) {
    w.Key("retry_after_ms");
    w.Int(static_cast<int64_t>(status.retry_after_seconds() * 1000.0 + 0.5));
  }
  w.EndObject();
  return w.TakeString();
}

namespace {

Result<StatusCode> StatusCodeFromString(const std::string& name) {
  for (int c = 0; c <= static_cast<int>(StatusCode::kPermissionDenied); ++c) {
    StatusCode code = static_cast<StatusCode>(c);
    if (name == StatusCodeToString(code)) return code;
  }
  return Status::InvalidArgument(
      StrFormat("unknown status code \"%s\"", name.c_str()));
}

}  // namespace

Result<ServeResponse> ParseServeResponse(const std::string& payload) {
  SECRETA_ASSIGN_OR_RETURN(JsonValue doc, JsonValue::Parse(payload));
  if (!doc.is_object()) {
    return Status::InvalidArgument("response must be a JSON object");
  }
  SECRETA_ASSIGN_OR_RETURN(bool ok, doc.GetBoolOr("ok", false));
  ServeResponse response;
  SECRETA_ASSIGN_OR_RETURN(response.id, doc.GetUintOr("id", 0));
  if (!ok) {
    SECRETA_ASSIGN_OR_RETURN(std::string code_name,
                             doc.GetStringOr("error", "Internal"));
    SECRETA_ASSIGN_OR_RETURN(std::string message,
                             doc.GetStringOr("message", ""));
    SECRETA_ASSIGN_OR_RETURN(uint64_t retry_ms,
                             doc.GetUintOr("retry_after_ms", 0));
    Result<StatusCode> code = StatusCodeFromString(code_name);
    Status error(code.ok() ? *code : StatusCode::kInternal, message);
    if (retry_ms > 0) {
      error = error.WithRetryAfter(static_cast<double>(retry_ms) / 1000.0);
    }
    return error;
  }
  response.ok = true;
  response.body = std::move(doc);
  return response;
}

}  // namespace secreta
