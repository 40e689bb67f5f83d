// Typed knowledge values.
#pragma once

#include <cstdint>
#include <string>
#include <variant>
#include <vector>

namespace sa::core {

/// The value payload of a knowledge item. Kept deliberately small: scalar
/// measurements dominate, strings label discrete states, vectors carry
/// small feature tuples.
using Value =
    std::variant<bool, std::int64_t, double, std::string, std::vector<double>>;

/// True if `v` holds a T.
template <typename T>
[[nodiscard]] bool holds(const Value& v) noexcept {
  return std::holds_alternative<T>(v);
}

/// Numeric view of a value: bool → 0/1, int → double, double → itself;
/// strings and vectors yield `fallback`.
[[nodiscard]] inline double as_number(const Value& v,
                                      double fallback = 0.0) noexcept {
  if (const auto* b = std::get_if<bool>(&v)) return *b ? 1.0 : 0.0;
  if (const auto* i = std::get_if<std::int64_t>(&v)) {
    return static_cast<double>(*i);
  }
  if (const auto* d = std::get_if<double>(&v)) return *d;
  return fallback;
}

}  // namespace sa::core
