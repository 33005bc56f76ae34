#ifndef NESTRA_COMMON_STATUS_H_
#define NESTRA_COMMON_STATUS_H_

#include <optional>
#include <string>
#include <utility>

namespace nestra {

/// \brief Error categories used across the library.
///
/// The library does not throw exceptions on expected failure paths; every
/// fallible operation returns a Status (or a Result<T>, below), following the
/// convention of systems like Arrow and RocksDB.
enum class StatusCode {
  kOk = 0,
  kInvalidArgument,
  kNotFound,
  kAlreadyExists,
  kTypeError,
  kParseError,
  kBindError,
  kNotImplemented,
  kInternal,
  kResourceExhausted,
  kOutOfRange,
};

/// \brief Returns a human-readable name for a status code ("OK",
/// "Invalid argument", ...).
const char* StatusCodeToString(StatusCode code);

/// \brief A success-or-error outcome carrying a code and a message.
///
/// Cheap to copy in the OK case (no allocation). Construct errors through the
/// named factory functions: `Status::InvalidArgument("...")` etc.
class Status {
 public:
  /// Creates an OK status.
  Status() : code_(StatusCode::kOk) {}

  Status(StatusCode code, std::string message)
      : code_(code), message_(std::move(message)) {}

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
  static Status TypeError(std::string msg) {
    return Status(StatusCode::kTypeError, std::move(msg));
  }
  static Status ParseError(std::string msg) {
    return Status(StatusCode::kParseError, std::move(msg));
  }
  static Status BindError(std::string msg) {
    return Status(StatusCode::kBindError, std::move(msg));
  }
  static Status NotImplemented(std::string msg) {
    return Status(StatusCode::kNotImplemented, std::move(msg));
  }
  static Status Internal(std::string msg) {
    return Status(StatusCode::kInternal, std::move(msg));
  }
  static Status ResourceExhausted(std::string msg) {
    return Status(StatusCode::kResourceExhausted, std::move(msg));
  }
  /// A value outside its type's range (SQL's "numeric value out of range").
  static Status OutOfRange(std::string msg) {
    return Status(StatusCode::kOutOfRange, std::move(msg));
  }

  bool ok() const { return code_ == StatusCode::kOk; }
  StatusCode code() const { return code_; }
  const std::string& message() const { return message_; }

  /// "OK" or "<code name>: <message>".
  std::string ToString() const;

 private:
  StatusCode code_;
  std::string message_;
};

/// \brief Either a value of type T or an error Status.
///
/// Usage:
///   Result<Table> r = DoThing();
///   if (!r.ok()) return r.status();
///   Table t = std::move(r).ValueOrDie();
///
/// Prefer the NESTRA_ASSIGN_OR_RETURN macro for propagation.
template <typename T>
class Result {
 public:
  /// Implicit construction from a value (success).
  Result(T value)  // NOLINT(google-explicit-constructor)
      : value_(std::move(value)) {}

  /// Implicit construction from an error status. It is a programming error to
  /// construct a Result from an OK status; that case is remapped to an
  /// internal error so it surfaces loudly instead of crashing.
  Result(Status status)  // NOLINT(google-explicit-constructor)
      : status_(std::move(status)) {
    if (status_.ok()) {
      status_ = Status::Internal("Result constructed from OK status");
    }
  }

  bool ok() const { return value_.has_value(); }
  const Status& status() const { return status_; }

  const T& ValueOrDie() const& { return *value_; }
  T& ValueOrDie() & { return *value_; }
  T ValueOrDie() && { return std::move(*value_); }

  const T& operator*() const& { return *value_; }
  T& operator*() & { return *value_; }
  const T* operator->() const { return &*value_; }
  T* operator->() { return &*value_; }

 private:
  std::optional<T> value_;
  Status status_;  // OK iff value_ holds a value.
};

}  // namespace nestra

// Propagation macros (statement-expression free, portable).
#define NESTRA_CONCAT_IMPL(x, y) x##y
#define NESTRA_CONCAT(x, y) NESTRA_CONCAT_IMPL(x, y)

/// Evaluates `expr` (a Status); returns it from the enclosing function if not
/// OK.
#define NESTRA_RETURN_NOT_OK(expr)                        \
  do {                                                    \
    ::nestra::Status _nestra_status = (expr);             \
    if (!_nestra_status.ok()) return _nestra_status;      \
  } while (false)

/// Evaluates `expr` (a Result<T>); on success binds the value to `lhs`,
/// otherwise returns the error status from the enclosing function.
#define NESTRA_ASSIGN_OR_RETURN_IMPL(result_name, lhs, expr) \
  auto result_name = (expr);                                 \
  if (!result_name.ok()) return result_name.status();        \
  lhs = std::move(result_name).ValueOrDie()

#define NESTRA_ASSIGN_OR_RETURN(lhs, expr)                                  \
  NESTRA_ASSIGN_OR_RETURN_IMPL(NESTRA_CONCAT(_nestra_result_, __COUNTER__), \
                               lhs, expr)

#endif  // NESTRA_COMMON_STATUS_H_
