#ifndef OTFAIR_COMMON_RESULT_H_
#define OTFAIR_COMMON_RESULT_H_

#include <cstdio>
#include <cstdlib>
#include <optional>
#include <utility>

#include "common/check.h"
#include "common/status.h"

namespace otfair::common {

/// Value-or-error container, modelled on absl::StatusOr<T>.
///
/// A `Result<T>` holds either a `T` (and an OK status) or a non-OK `Status`.
/// Accessing the value of an error result is a fatal programmer error
/// (enforced with CHECK).
///
///     Result<Plan> r = Solve(...);
///     if (!r.ok()) return r.status();
///     const Plan& plan = r.value();
template <typename T>
class Result {
 public:
  /// Implicit conversion from a value: success.
  Result(T value) : status_(), value_(std::move(value)) {}  // NOLINT(runtime/explicit)

  /// Implicit conversion from an error status. The status must not be OK:
  /// an OK status without a value would be ill-formed.
  Result(Status status) : status_(std::move(status)) {  // NOLINT(runtime/explicit)
    OTFAIR_CHECK(!status_.ok()) << "Result constructed from OK status without a value";
  }

  bool ok() const { return status_.ok(); }
  const Status& status() const { return status_; }

  const T& value() const& {
    OTFAIR_CHECK(ok()) << "Result::value() on error: " << status_.ToString();
    return *value_;
  }
  T& value() & {
    OTFAIR_CHECK(ok()) << "Result::value() on error: " << status_.ToString();
    return *value_;
  }
  T&& value() && {
    OTFAIR_CHECK(ok()) << "Result::value() on error: " << status_.ToString();
    return std::move(*value_);
  }

  const T& operator*() const& { return value(); }
  T& operator*() & { return value(); }
  const T* operator->() const { return &value(); }
  T* operator->() { return &value(); }

  /// Returns the value, or `fallback` when this holds an error.
  T value_or(T fallback) const& { return ok() ? *value_ : std::move(fallback); }

 private:
  Status status_;
  std::optional<T> value_;
};

/// For a program's main: the value of `result`, or, after printing
/// "<what> failed: <status>" to stderr, exit status 1.
template <typename T>
T OrExit(Result<T> result, const char* what) {
  if (!result.ok()) {
    std::fprintf(stderr, "%s failed: %s\n", what, result.status().ToString().c_str());
    std::exit(1);
  }
  return std::move(result).value();
}

/// Early-return helper: assigns the value of a Result expression to `lhs`, or
/// propagates its error status. `lhs` must be a declaration or assignable
/// expression.
#define OTFAIR_ASSIGN_OR_RETURN(lhs, rexpr)                     \
  OTFAIR_ASSIGN_OR_RETURN_IMPL_(                                \
      OTFAIR_CONCAT_(_otfair_result_, __LINE__), lhs, rexpr)

#define OTFAIR_ASSIGN_OR_RETURN_IMPL_(tmp, lhs, rexpr) \
  auto tmp = (rexpr);                                  \
  if (!tmp.ok()) return tmp.status();                  \
  lhs = std::move(tmp).value()

#define OTFAIR_CONCAT_INNER_(a, b) a##b
#define OTFAIR_CONCAT_(a, b) OTFAIR_CONCAT_INNER_(a, b)

}  // namespace otfair::common

#endif  // OTFAIR_COMMON_RESULT_H_
