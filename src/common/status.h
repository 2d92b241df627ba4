#ifndef SLACKER_COMMON_STATUS_H_
#define SLACKER_COMMON_STATUS_H_

#include <string>
#include <utility>
#include <variant>

namespace slacker {

/// Error codes used across the Slacker stack. Modeled after the
/// RocksDB/Arrow convention: every fallible operation returns a Status
/// (or Result<T>) instead of throwing.
enum class StatusCode {
  kOk = 0,
  kInvalidArgument,
  kNotFound,
  kAlreadyExists,
  kFailedPrecondition,
  kAborted,
  kUnavailable,
  kCorruption,
  kInternal,
  /// A cancel request lost the race to handover: ownership has already
  /// (or is about to be) transferred, so the target stays
  /// authoritative. Not an error in the migration itself — the caller
  /// must simply stop treating the source as the home of the tenant.
  kTooLateToCancel,
};

/// Returns a stable human-readable name for `code` ("Ok", "NotFound", ...).
const char* StatusCodeName(StatusCode code);

/// A success-or-error value. Cheap to copy in the success case (no
/// allocation); carries a message in the error case.
///
/// [[nodiscard]]: a Status dropped on the floor is a silently ignored
/// error. Call sites that genuinely do not care must say so with
/// `(void)` and a comment explaining why ignoring is safe.
class [[nodiscard]] Status {
 public:
  /// Constructs an OK status.
  Status() : code_(StatusCode::kOk) {}

  static Status Ok() { return Status(); }
  static Status InvalidArgument(std::string msg) {
    return Status(StatusCode::kInvalidArgument, std::move(msg));
  }
  static Status NotFound(std::string msg) {
    return Status(StatusCode::kNotFound, std::move(msg));
  }
  static Status AlreadyExists(std::string msg) {
    return Status(StatusCode::kAlreadyExists, std::move(msg));
  }
  static Status FailedPrecondition(std::string msg) {
    return Status(StatusCode::kFailedPrecondition, std::move(msg));
  }
  static Status Aborted(std::string msg) {
    return Status(StatusCode::kAborted, std::move(msg));
  }
  static Status Unavailable(std::string msg) {
    return Status(StatusCode::kUnavailable, std::move(msg));
  }
  static Status Corruption(std::string msg) {
    return Status(StatusCode::kCorruption, std::move(msg));
  }
  static Status Internal(std::string msg) {
    return Status(StatusCode::kInternal, std::move(msg));
  }
  static Status TooLateToCancel(std::string msg) {
    return Status(StatusCode::kTooLateToCancel, std::move(msg));
  }

  bool ok() const { return code_ == StatusCode::kOk; }
  StatusCode code() const { return code_; }
  const std::string& message() const { return message_; }

  /// "Ok" or "NotFound: tenant 7 unknown".
  std::string ToString() const;

  bool operator==(const Status& other) const {
    return code_ == other.code_ && message_ == other.message_;
  }

 private:
  Status(StatusCode code, std::string msg)
      : code_(code), message_(std::move(msg)) {}

  StatusCode code_;
  std::string message_;
};

/// Either a T or an error Status. Analogous to arrow::Result /
/// absl::StatusOr, reduced to what this codebase needs. [[nodiscard]]
/// for the same reason as Status.
template <typename T>
class [[nodiscard]] Result {
 public:
  /// Implicit from value: allows `return value;` from Result-returning
  /// functions (matching absl::StatusOr ergonomics).
  Result(T value) : value_(std::move(value)) {}  // NOLINT(runtime/explicit)
  /// Implicit from error status; `status.ok()` must be false.
  Result(Status status)  // NOLINT(runtime/explicit)
      : value_(std::move(status)) {}

  bool ok() const { return std::holds_alternative<T>(value_); }

  const Status& status() const {
    static const Status kOk;
    if (ok()) return kOk;
    return std::get<Status>(value_);
  }

  /// Requires ok().
  const T& value() const& { return std::get<T>(value_); }
  T& value() & { return std::get<T>(value_); }
  T&& value() && { return std::get<T>(std::move(value_)); }

  const T& operator*() const& { return value(); }
  T& operator*() & { return value(); }
  const T* operator->() const { return &value(); }
  T* operator->() { return &value(); }

 private:
  std::variant<T, Status> value_;
};

/// Propagates a non-OK status to the caller:
///   SLACKER_RETURN_IF_ERROR(DoThing());
#define SLACKER_RETURN_IF_ERROR(expr)            \
  do {                                           \
    ::slacker::Status status_macro_s_ = (expr);  \
    if (!status_macro_s_.ok()) return status_macro_s_; \
  } while (false)

}  // namespace slacker

#endif  // SLACKER_COMMON_STATUS_H_
