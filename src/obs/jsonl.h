// Line appenders shared by the JSONL writers of spans and flight snapshots.
//
// Numbers go through std::to_chars, so building a line consults no locale
// and, once the caller's line buffer has grown to a line's length, allocates
// nothing. The text is what the stream writers printed before: integers in
// decimal, doubles as "%.17g" with non-finite values as null.
#pragma once

#include <charconv>
#include <cmath>
#include <concepts>
#include <string>

#include "src/util/strings.h"

namespace anyqos::obs::jsonl {

template <std::integral T>
void append_integer(std::string& line, T value) {
  char buffer[24];  // any 64-bit integer with its sign
  const auto [end, ec] = std::to_chars(buffer, buffer + sizeof(buffer), value);
  (void)ec;
  line.append(buffer, end);
}

/// A JSON number: null when `value` is not finite.
inline void append_number(std::string& line, double value) {
  if (!std::isfinite(value)) {
    line += "null";
    return;
  }
  line += util::format_g17(value).view();
}

inline void append_bool(std::string& line, bool value) { line += value ? "true" : "false"; }

}  // namespace anyqos::obs::jsonl
