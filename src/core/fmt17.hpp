#pragma once
// Canonical double rendering for every deterministic report and JSON
// document: the round-trippable "%.17g" text. Header-only and
// dependency-free, so the low layers (obs) use it like the flow facade.

#include <charconv>
#include <string>

namespace sct::core {

/// `v` rendered exactly as std::printf("%.17g", v) renders it (C++ specifies
/// general-format to_chars with a precision as printf's "%.*g"), including
/// signed zeros, subnormals, "inf" and "nan". No format-string parsing and
/// no locale lookup, so reports with many thousands of numbers render about
/// twice as fast as through snprintf.
[[nodiscard]] inline std::string fmt17(double v) {
  char buffer[32];  // longest output: "-2.2250738585072014e-308", 24 chars
  const std::to_chars_result r =
      std::to_chars(buffer, buffer + sizeof buffer, v,
                    std::chars_format::general, 17);
  return {buffer, r.ptr};
}

/// Appends fmt17(v) to `out` without a temporary string.
inline void fmt17(std::string& out, double v) {
  char buffer[32];
  const std::to_chars_result r =
      std::to_chars(buffer, buffer + sizeof buffer, v,
                    std::chars_format::general, 17);
  out.append(buffer, r.ptr);
}

}  // namespace sct::core
