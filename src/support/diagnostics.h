// Error reporting and invariant checking used across the library.
//
// The library reports broken preconditions and internal invariant failures
// by throwing `qvliw::Error`.  Conditions that are expected in normal
// operation (a loop that does not fit a machine, a queue budget exceeded)
// are reported through return values, never through exceptions.
#pragma once

#include <stdexcept>
#include <string>
#include <string_view>

namespace qvliw {

/// Exception type thrown on precondition violations and internal errors.
class Error : public std::runtime_error {
 public:
  explicit Error(const std::string& message) : std::runtime_error(message) {}
};

/// Throws `Error` carrying `message` (marked noreturn for flow analysis).
[[noreturn]] void fail(std::string_view message);

/// Throws `Error` with file/line context.
[[noreturn]] void fail_at(std::string_view file, int line, std::string_view message);

/// Checks a precondition; throws `Error` with `message` when violated.
inline void check(bool condition, std::string_view message) {
  if (!condition) fail(message);
}

/// String literals select this overload instead of the deleted one below.
inline void check(bool condition, const char* message) {
  if (!condition) fail(message);
}

/// `check(cond, cat(...))` would build its message on every call, even when
/// the condition holds; write `if (!cond) fail(cat(...))` instead.
void check(bool condition, std::string&& message) = delete;

/// Internal-invariant flavour of `check`; use for "cannot happen" states.
#define QVLIW_ASSERT(cond, msg)                             \
  do {                                                      \
    if (!(cond)) ::qvliw::fail_at(__FILE__, __LINE__, msg); \
  } while (false)

}  // namespace qvliw
