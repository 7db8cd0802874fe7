// Small string helpers used by CLI parsing and report formatting.
#pragma once

#include <array>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

namespace anyqos::util {

/// Splits `text` on `sep`, keeping empty fields ("a,,b" -> {"a","","b"}).
std::vector<std::string> split(std::string_view text, char sep);

/// Removes leading and trailing ASCII whitespace.
std::string_view trim(std::string_view text);

/// Parses a decimal double; returns nullopt on any trailing garbage.
std::optional<double> parse_double(std::string_view text);

/// Parses a decimal non-negative integer; returns nullopt on any trailing
/// garbage or a minus sign.
std::optional<unsigned long long> parse_unsigned(std::string_view text);

/// True when `text` begins with `prefix`.
bool starts_with(std::string_view text, std::string_view prefix);

/// True when `text` ends with `suffix`.
bool ends_with(std::string_view text, std::string_view suffix);

/// Formats `value` with `digits` digits after the decimal point.
std::string format_fixed(double value, int digits);

/// A number's text held inline, so rendering it allocates nothing.
struct NumberText {
  std::array<char, 32> chars{};
  std::size_t size = 0;
  [[nodiscard]] std::string_view view() const { return {chars.data(), size}; }
};

/// Renders `value` as printf's "%.17g" does (enough digits to round-trip
/// every double) through std::to_chars(general, 17), which the standard
/// defines to print the same text: no locale, no allocation. Non-finite
/// values print as printf prints them ("inf", "-nan", ...); callers that
/// spell them otherwise test for them first.
NumberText format_g17(double value);

/// Escapes `text` for embedding inside a JSON string literal: backslash,
/// double quote, and control characters (\b \f \n \r \t, \u00XX otherwise).
std::string json_escape(std::string_view text);

/// json_escape(text) appended to `out`, for writers that reuse one buffer.
void append_json_escaped(std::string& out, std::string_view text);

}  // namespace anyqos::util
