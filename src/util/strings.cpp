#include "src/util/strings.h"

#include <cctype>
#include <charconv>
#include <cstdio>

namespace anyqos::util {

std::vector<std::string> split(std::string_view text, char sep) {
  std::vector<std::string> fields;
  std::size_t start = 0;
  while (true) {
    const std::size_t pos = text.find(sep, start);
    if (pos == std::string_view::npos) {
      fields.emplace_back(text.substr(start));
      return fields;
    }
    fields.emplace_back(text.substr(start, pos - start));
    start = pos + 1;
  }
}

std::string_view trim(std::string_view text) {
  std::size_t begin = 0;
  std::size_t end = text.size();
  while (begin < end && std::isspace(static_cast<unsigned char>(text[begin])) != 0) {
    ++begin;
  }
  while (end > begin && std::isspace(static_cast<unsigned char>(text[end - 1])) != 0) {
    --end;
  }
  return text.substr(begin, end - begin);
}

std::optional<double> parse_double(std::string_view text) {
  text = trim(text);
  if (text.empty()) {
    return std::nullopt;
  }
  double value = 0.0;
  const char* const first = text.data();
  const char* const last = text.data() + text.size();
  const auto [ptr, ec] = std::from_chars(first, last, value);
  if (ec != std::errc{} || ptr != last) {
    return std::nullopt;
  }
  return value;
}

std::optional<unsigned long long> parse_unsigned(std::string_view text) {
  text = trim(text);
  if (text.empty() || text.front() == '-' || text.front() == '+') {
    return std::nullopt;
  }
  unsigned long long value = 0;
  const char* const first = text.data();
  const char* const last = text.data() + text.size();
  const auto [ptr, ec] = std::from_chars(first, last, value);
  if (ec != std::errc{} || ptr != last) {
    return std::nullopt;
  }
  return value;
}

bool starts_with(std::string_view text, std::string_view prefix) {
  return text.size() >= prefix.size() && text.substr(0, prefix.size()) == prefix;
}

bool ends_with(std::string_view text, std::string_view suffix) {
  return text.size() >= suffix.size() &&
         text.substr(text.size() - suffix.size()) == suffix;
}

std::string format_fixed(double value, int digits) {
  char buffer[64];
  std::snprintf(buffer, sizeof(buffer), "%.*f", digits, value);
  return std::string(buffer);
}

NumberText format_g17(double value) {
  NumberText text;
  const auto [end, ec] = std::to_chars(text.chars.data(), text.chars.data() + text.chars.size(),
                                       value, std::chars_format::general, 17);
  (void)ec;  // 32 chars hold the longest %.17g text (24)
  text.size = static_cast<std::size_t>(end - text.chars.data());
  return text;
}

std::string json_escape(std::string_view text) {
  std::string out;
  out.reserve(text.size());
  append_json_escaped(out, text);
  return out;
}

void append_json_escaped(std::string& out, std::string_view text) {
  for (const char c : text) {
    switch (c) {
      case '\\':
        out += "\\\\";
        break;
      case '"':
        out += "\\\"";
        break;
      case '\b':
        out += "\\b";
        break;
      case '\f':
        out += "\\f";
        break;
      case '\n':
        out += "\\n";
        break;
      case '\r':
        out += "\\r";
        break;
      case '\t':
        out += "\\t";
        break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buffer[8];
          std::snprintf(buffer, sizeof(buffer), "\\u%04x", c);
          out += buffer;
        } else {
          out += c;
        }
        break;
    }
  }
}

}  // namespace anyqos::util
