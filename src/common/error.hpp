// Error handling utilities: contract checks that throw with source location.
#pragma once

#include <concepts>
#include <source_location>
#include <stdexcept>
#include <string>
#include <string_view>

namespace xflow {

/// Thrown when a runtime contract (precondition, invariant) is violated.
class ContractViolation : public std::logic_error {
 public:
  using std::logic_error::logic_error;
};

/// Thrown when an operation is given invalid or inconsistent arguments.
class InvalidArgument : public std::invalid_argument {
 public:
  using std::invalid_argument::invalid_argument;
};

namespace detail {
[[noreturn]] void fail(std::string_view kind, std::string_view msg,
                       const std::source_location& loc);
}  // namespace detail

/// Precondition check: throws ContractViolation when `cond` is false.
inline void check(
    bool cond, std::string_view msg,
    const std::source_location& loc = std::source_location::current()) {
  if (!cond) detail::fail("check failed", msg, loc);
}

/// Argument validation: throws InvalidArgument when `cond` is false.
inline void require(
    bool cond, std::string_view msg,
    const std::source_location& loc = std::source_location::current()) {
  if (!cond) detail::fail("invalid argument", msg, loc);
}

/// require() for a message that costs an allocation to build: `message`
/// (typically a lambda returning StrFormat(...)) runs only when `cond` is
/// false, so a passing check on a hot path formats nothing.
template <std::invocable Message>
inline void require(
    bool cond, const Message& message,
    const std::source_location& loc = std::source_location::current()) {
  if (!cond) detail::fail("invalid argument", message(), loc);
}

}  // namespace xflow
