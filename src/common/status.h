// Error handling for the MemFS reproduction.
//
// File-system operations return errno-like codes through `Status`, and
// value-producing operations return `Result<T>`. We avoid exceptions on the
// I/O fast path: a missing file is control flow, not an error condition.
#pragma once

#include <cstdint>
#include <ostream>
#include <string>
#include <string_view>
#include <utility>
#include <variant>

namespace memfs {

enum class ErrorCode : std::uint8_t {
  kOk = 0,
  kNotFound,        // ENOENT
  kExists,          // EEXIST
  kPermission,      // EPERM (e.g. rewrite of a sealed write-once file)
  kInvalidArgument, // EINVAL
  kNotDirectory,    // ENOTDIR
  kIsDirectory,     // EISDIR
  kNotEmpty,        // ENOTEMPTY
  kNoSpace,         // ENOSPC (server memory exhausted)
  kTooLarge,        // EFBIG  (object exceeds the per-object limit)
  kUnavailable,     // server unreachable
  kBadHandle,       // EBADF
  kDeadlineExceeded, // ETIMEDOUT (per-op deadline elapsed; server slow/lossy)
  kInternal,
  // The server has permanently left the cluster (drained to LEFT): no retry,
  // failover pass or breaker half-open will ever get an answer from it. A
  // definitive "this copy is gone", unlike the transient kUnavailable.
  kUnavailablePermanent,
};

// Transient failures worth retrying: the server may answer on a later
// attempt (it was down, slow, or the message was lost). Every other code is
// a definitive answer from a healthy server and must not be retried.
inline bool IsRetryable(ErrorCode code) {
  return code == ErrorCode::kUnavailable ||
         code == ErrorCode::kDeadlineExceeded;
}

std::string_view ToString(ErrorCode code);

class [[nodiscard]] Status {
 public:
  Status() = default;
  explicit Status(ErrorCode code) : code_(code) {}
  Status(ErrorCode code, std::string message)
      : code_(code), message_(std::move(message)) {}

  static Status Ok() { return Status(); }

  bool ok() const { return code_ == ErrorCode::kOk; }
  ErrorCode code() const { return code_; }
  const std::string& message() const { return message_; }

  std::string ToString() const;

  friend bool operator==(const Status& a, const Status& b) {
    return a.code_ == b.code_;
  }

 private:
  ErrorCode code_ = ErrorCode::kOk;
  std::string message_;
};

std::ostream& operator<<(std::ostream& os, const Status& status);

// A value or a failure Status. Minimal by design: the call sites only need
// ok()/status()/value()/operator*.
template <typename T>
class [[nodiscard]] Result {
 public:
  Result(T value) : data_(std::move(value)) {}  // NOLINT: implicit by design
  Result(Status status) : data_(std::move(status)) {}  // NOLINT
  Result(ErrorCode code) : data_(Status(code)) {}      // NOLINT

  bool ok() const { return std::holds_alternative<T>(data_); }

  Status status() const {
    if (ok()) return Status::Ok();
    return std::get<Status>(data_);
  }

  const T& value() const& { return std::get<T>(data_); }
  T& value() & { return std::get<T>(data_); }
  T&& value() && { return std::get<T>(std::move(data_)); }

  const T& operator*() const& { return value(); }
  T& operator*() & { return value(); }
  const T* operator->() const { return &value(); }
  T* operator->() { return &value(); }

 private:
  std::variant<T, Status> data_;
};

namespace status {
inline Status NotFound(std::string msg = {}) {
  return {ErrorCode::kNotFound, std::move(msg)};
}
inline Status Exists(std::string msg = {}) {
  return {ErrorCode::kExists, std::move(msg)};
}
inline Status Permission(std::string msg = {}) {
  return {ErrorCode::kPermission, std::move(msg)};
}
inline Status InvalidArgument(std::string msg = {}) {
  return {ErrorCode::kInvalidArgument, std::move(msg)};
}
inline Status NotDirectory(std::string msg = {}) {
  return {ErrorCode::kNotDirectory, std::move(msg)};
}
inline Status IsDirectory(std::string msg = {}) {
  return {ErrorCode::kIsDirectory, std::move(msg)};
}
inline Status NotEmpty(std::string msg = {}) {
  return {ErrorCode::kNotEmpty, std::move(msg)};
}
inline Status NoSpace(std::string msg = {}) {
  return {ErrorCode::kNoSpace, std::move(msg)};
}
inline Status TooLarge(std::string msg = {}) {
  return {ErrorCode::kTooLarge, std::move(msg)};
}
inline Status Unavailable(std::string msg = {}) {
  return {ErrorCode::kUnavailable, std::move(msg)};
}
inline Status BadHandle(std::string msg = {}) {
  return {ErrorCode::kBadHandle, std::move(msg)};
}
inline Status DeadlineExceeded(std::string msg = {}) {
  return {ErrorCode::kDeadlineExceeded, std::move(msg)};
}
inline Status Internal(std::string msg = {}) {
  return {ErrorCode::kInternal, std::move(msg)};
}
inline Status UnavailablePermanent(std::string msg = {}) {
  return {ErrorCode::kUnavailablePermanent, std::move(msg)};
}

// A failed lookup as the caller reports it: NOT_FOUND names `what` (the
// user-facing path, or "parent directory: <path>"), while availability
// errors (UNAVAILABLE, DEADLINE_EXCEEDED) and every other code pass
// unchanged, so callers can tell "does not exist" from "cannot currently
// tell".
inline Status LookupError(const Status& failed, std::string what) {
  return failed.code() == ErrorCode::kNotFound ? NotFound(std::move(what))
                                               : failed;
}
}  // namespace status

}  // namespace memfs
