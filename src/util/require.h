// Precondition / invariant checking helpers.
//
// The library uses exceptions for contract violations so that misuse of the
// public API is reported loudly instead of corrupting simulation state.
// `require` is for caller-supplied preconditions (throws std::invalid_argument),
// `ensure` is for internal invariants (throws std::logic_error).
//
// The condition test is inline and the throw is out of line, so a passing
// check costs a compare and a predicted branch, not a call. Checks stay in
// every build type.
#pragma once

#include <stdexcept>
#include <string>
#include <string_view>

namespace anyqos::util {

/// Exception thrown when an internal invariant is violated. Catching this
/// (other than at a top-level error boundary) is almost always a bug.
class InvariantError : public std::logic_error {
 public:
  explicit InvariantError(const std::string& what) : std::logic_error(what) {}
};

/// Throws std::invalid_argument with `message`: the failing half of
/// require(), for call sites that build their message only after the check
/// has failed.
[[noreturn]] void fail_requirement(std::string_view message);

/// Throws InvariantError with `message`: the failing half of ensure().
[[noreturn]] void fail_invariant(std::string_view message);

/// Throws std::invalid_argument with `message` when `condition` is false.
/// Use for validating caller-supplied arguments at public API boundaries.
inline void require(bool condition, std::string_view message) {
  if (!condition) [[unlikely]] {
    fail_requirement(message);
  }
}

/// Throws InvariantError with `message` when `condition` is false.
/// Use for internal consistency checks.
inline void ensure(bool condition, std::string_view message) {
  if (!condition) [[unlikely]] {
    fail_invariant(message);
  }
}

/// Unconditionally reports an unreachable code path.
[[noreturn]] void unreachable(std::string_view message);

}  // namespace anyqos::util
