#ifndef FTL_UTIL_STATUS_H_
#define FTL_UTIL_STATUS_H_

/// \file status.h
/// Lightweight Status / Result error-handling primitives.
///
/// The FTL public API does not throw across module boundaries: fallible
/// operations return `Status` (or `Result<T>` when they also produce a
/// value). This mirrors the error-handling idiom of production database
/// engines (RocksDB, Arrow).

#include <optional>
#include <string>
#include <utility>

namespace ftl {

/// Error category for a failed operation.
enum class StatusCode {
  kOk = 0,
  kInvalidArgument,
  kNotFound,
  kIOError,
  kOutOfRange,
  kFailedPrecondition,
  kInternal,
  kDeadlineExceeded,  ///< an operation ran past its deadline
  kCancelled,         ///< the caller requested cancellation
};

/// Returns a human-readable name for a StatusCode.
const char* StatusCodeName(StatusCode code);

/// The result of an operation that can fail.
///
/// A default-constructed Status is OK. Failed statuses carry a code and a
/// message. Status is cheap to copy for the OK case and small otherwise.
class Status {
 public:
  /// Constructs an OK status.
  Status() : code_(StatusCode::kOk) {}

  /// Constructs a status with the given code and message.
  Status(StatusCode code, std::string message)
      : code_(code), message_(std::move(message)) {}

  /// Named constructors.
  static Status OK() { return Status(); }
  static Status InvalidArgument(std::string msg) {
    return Status(StatusCode::kInvalidArgument, std::move(msg));
  }
  static Status NotFound(std::string msg) {
    return Status(StatusCode::kNotFound, std::move(msg));
  }
  static Status IOError(std::string msg) {
    return Status(StatusCode::kIOError, std::move(msg));
  }
  static Status OutOfRange(std::string msg) {
    return Status(StatusCode::kOutOfRange, std::move(msg));
  }
  static Status FailedPrecondition(std::string msg) {
    return Status(StatusCode::kFailedPrecondition, std::move(msg));
  }
  static Status Internal(std::string msg) {
    return Status(StatusCode::kInternal, std::move(msg));
  }
  static Status DeadlineExceeded(std::string msg) {
    return Status(StatusCode::kDeadlineExceeded, std::move(msg));
  }
  static Status Cancelled(std::string msg) {
    return Status(StatusCode::kCancelled, std::move(msg));
  }

  /// True iff the operation succeeded.
  bool ok() const { return code_ == StatusCode::kOk; }

  /// The status code.
  StatusCode code() const { return code_; }

  /// The error message; empty for OK statuses.
  const std::string& message() const { return message_; }

  /// "OK" or "<CodeName>: <message>".
  std::string ToString() const;

 private:
  StatusCode code_;
  std::string message_;
};

/// The result of an operation that produces a T or fails with a Status.
///
/// Usage:
///   Result<Foo> r = MakeFoo();
///   if (!r.ok()) return r.status();
///   Foo& foo = r.value();
template <typename T>
class Result {
 public:
  /// Constructs a successful result holding `value`.
  Result(T value)  // NOLINT(google-explicit-constructor)
      : value_(std::move(value)) {}

  /// Constructs a failed result. `status` must not be OK.
  Result(Status status)  // NOLINT(google-explicit-constructor)
      : status_(std::move(status)) {
    if (status_.ok()) {
      status_ = Status::Internal("Result constructed from OK status");
    }
  }

  /// True iff a value is present.
  bool ok() const { return value_.has_value(); }

  /// The status: OK when a value is present.
  const Status& status() const { return status_; }

  /// The contained value; must only be called when ok().
  const T& value() const& { return *value_; }
  T& value() & { return *value_; }
  T&& value() && { return std::move(*value_); }

  /// Returns the value or `fallback` when failed.
  T value_or(T fallback) const {
    return value_.has_value() ? *value_ : std::move(fallback);
  }

 private:
  std::optional<T> value_;
  Status status_;  // OK iff value_ present
};

/// Maps a Status to a process exit code, one distinct code per error
/// category so scripts can branch on the failure kind:
///   0 OK; 2 InvalidArgument; 3 NotFound; 4 IOError; 5 OutOfRange;
///   6 FailedPrecondition; 7 Internal; 8 DeadlineExceeded; 9 Cancelled.
/// (1 is reserved for usage errors: no arguments or an unknown command;
/// a flag the command's table rejects is InvalidArgument, 2.)
/// This is THE status→exit-code table: the one-shot CLI and the
/// `ftl serve` daemon both use it, and the serve layer's HTTP mapping
/// (serve::HttpStatusForStatus) derives from the same StatusCode enum,
/// so the two surfaces cannot drift apart. Documented in
/// docs/OPERATIONS.md.
int ExitCodeForStatus(const Status& status);

/// Propagates a non-OK status out of the current function.
#define FTL_RETURN_NOT_OK(expr)              \
  do {                                       \
    ::ftl::Status _st = (expr);              \
    if (!_st.ok()) return _st;               \
  } while (0)

}  // namespace ftl

#endif  // FTL_UTIL_STATUS_H_
