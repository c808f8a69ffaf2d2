// Copyright (c) SECRETA reproduction authors.
// Arrow/RocksDB-style Status and Result<T> used on every fallible path in the
// library. Core code does not throw; errors propagate through these types.

#ifndef SECRETA_COMMON_STATUS_H_
#define SECRETA_COMMON_STATUS_H_

#include <cassert>
#include <optional>
#include <string>
#include <utility>

#include "common/annotations.h"

namespace secreta {

/// Machine-readable category of a Status.
enum class StatusCode {
  kOk = 0,
  kInvalidArgument,
  kNotFound,
  kAlreadyExists,
  kOutOfRange,
  kFailedPrecondition,
  kIOError,
  kUnimplemented,
  kInternal,
  kResourceExhausted,
  kDeadlineExceeded,
  kCancelled,
  kPermissionDenied,
};

/// Returns a human-readable name for a status code (e.g. "InvalidArgument").
const char* StatusCodeToString(StatusCode code);

/// \brief Outcome of a fallible operation.
///
/// A default-constructed Status is OK. Non-OK statuses carry a code and a
/// message. Statuses are cheap to copy (OK carries no allocation).
///
/// [[nodiscard]]: a dropped Status is a silently-swallowed error, which in a
/// benchmark harness means silently-wrong numbers. Callers that genuinely
/// cannot act on a failure must say so explicitly with IgnoreError() and a
/// one-line justification comment.
class [[nodiscard]] Status {
 public:
  Status() : code_(StatusCode::kOk) {}
  Status(StatusCode code, std::string message)
      : code_(code), message_(std::move(message)) {}

  /// Returns the canonical OK status.
  static Status OK() { return Status(); }
  static Status InvalidArgument(std::string msg) {
    return Status(StatusCode::kInvalidArgument, std::move(msg));
  }
  static Status NotFound(std::string msg) {
    return Status(StatusCode::kNotFound, std::move(msg));
  }
  static Status AlreadyExists(std::string msg) {
    return Status(StatusCode::kAlreadyExists, std::move(msg));
  }
  static Status OutOfRange(std::string msg) {
    return Status(StatusCode::kOutOfRange, std::move(msg));
  }
  static Status FailedPrecondition(std::string msg) {
    return Status(StatusCode::kFailedPrecondition, std::move(msg));
  }
  static Status IOError(std::string msg) {
    return Status(StatusCode::kIOError, std::move(msg));
  }
  static Status Unimplemented(std::string msg) {
    return Status(StatusCode::kUnimplemented, std::move(msg));
  }
  static Status Internal(std::string msg) {
    return Status(StatusCode::kInternal, std::move(msg));
  }
  static Status ResourceExhausted(std::string msg) {
    return Status(StatusCode::kResourceExhausted, std::move(msg));
  }
  static Status DeadlineExceeded(std::string msg) {
    return Status(StatusCode::kDeadlineExceeded, std::move(msg));
  }
  static Status Cancelled(std::string msg) {
    return Status(StatusCode::kCancelled, std::move(msg));
  }
  static Status PermissionDenied(std::string msg) {
    return Status(StatusCode::kPermissionDenied, std::move(msg));
  }

  bool ok() const { return code_ == StatusCode::kOk; }
  StatusCode code() const { return code_; }
  const std::string& message() const { return message_; }

  /// Backpressure hint: how long the caller should wait before retrying.
  /// Populated on kResourceExhausted rejections the query server answers
  /// (tenant quota exhausted, connection table full) so clients get
  /// HTTP-429-style responses; 0 = no hint.
  double retry_after_seconds() const { return retry_after_seconds_; }
  bool has_retry_after() const { return retry_after_seconds_ > 0; }

  /// Returns a copy of this status carrying a retry-after hint.
  Status WithRetryAfter(double seconds) const {
    Status copy = *this;
    copy.retry_after_seconds_ = seconds;
    return copy;
  }

  /// Explicitly discards this status. The only sanctioned way to drop a
  /// Status return: it defeats [[nodiscard]] visibly and greppably. Every
  /// call site carries a one-line comment saying why dropping is safe.
  void IgnoreError() const {}

  /// Formats as "Code: message", or "OK".
  std::string ToString() const;

  bool operator==(const Status& other) const {
    return code_ == other.code_ && message_ == other.message_;
  }

 private:
  StatusCode code_;
  std::string message_;
  double retry_after_seconds_ = 0;
};

/// \brief Either a value of type T or an error Status.
///
/// The moral equivalent of arrow::Result / absl::StatusOr, small enough to
/// live in one header. Access to the value of a failed Result aborts in debug
/// builds (assert) and is undefined otherwise; check ok() first or use the
/// SECRETA_ASSIGN_OR_RETURN macro.
template <typename T>
class [[nodiscard]] Result {
 public:
  /// Implicit from error status. Constructing from an OK status is a bug.
  Result(Status status)  // NOLINT(google-explicit-constructor)
      : status_(std::move(status)) {
    assert(!status_.ok() && "Result constructed from OK status without value");
  }
  /// Implicit from value.
  Result(T value)  // NOLINT(google-explicit-constructor)
      : status_(Status::OK()), value_(std::move(value)) {}

  bool ok() const { return status_.ok(); }
  const Status& status() const { return status_; }

  const T& value() const& {
    assert(ok());
    return *value_;
  }
  T& value() & {
    assert(ok());
    return *value_;
  }
  T&& value() && {
    assert(ok());
    return std::move(*value_);
  }

  /// Moves the value out; aborts on error (tests/examples convenience).
  T ValueOrDie() && {
    if (!ok()) {
      // In release builds assert compiles out; fail loudly instead of UB.
      fprintf(stderr, "Result::ValueOrDie on error: %s\n",
              status_.ToString().c_str());
      abort();
    }
    return std::move(*value_);
  }

  const T& operator*() const& { return value(); }
  T& operator*() & { return value(); }
  const T* operator->() const { return &value(); }
  T* operator->() { return &value(); }

 private:
  Status status_;
  std::optional<T> value_;
};

}  // namespace secreta

/// Propagates a non-OK Status from an expression returning Status.
#define SECRETA_RETURN_IF_ERROR(expr)                 \
  do {                                                \
    ::secreta::Status _secreta_status = (expr);       \
    if (!_secreta_status.ok()) return _secreta_status; \
  } while (false)

#define SECRETA_CONCAT_IMPL(a, b) a##b
#define SECRETA_CONCAT(a, b) SECRETA_CONCAT_IMPL(a, b)

/// Evaluates an expression returning Result<T>; on error propagates the
/// Status, otherwise assigns the value to `lhs` (which may be a declaration).
#define SECRETA_ASSIGN_OR_RETURN(lhs, expr)                          \
  SECRETA_ASSIGN_OR_RETURN_IMPL(                                     \
      SECRETA_CONCAT(_secreta_result_, __LINE__), lhs, expr)

#define SECRETA_ASSIGN_OR_RETURN_IMPL(tmp, lhs, expr) \
  auto tmp = (expr);                                  \
  if (!tmp.ok()) return tmp.status();                 \
  lhs = std::move(tmp).value();

#endif  // SECRETA_COMMON_STATUS_H_
