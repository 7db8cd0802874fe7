#include "src/util/json.h"

#include <cmath>
#include <cstdint>
#include <stdexcept>

#include "src/util/require.h"
#include "src/util/strings.h"

namespace anyqos::util {
namespace {

// Parse recursion cap: scenario documents nest a handful of levels; anything
// deeper is an adversarial input, not a scenario.
constexpr int kMaxDepth = 64;

[[noreturn]] void fail_at(std::size_t offset, const std::string& what) {
  throw std::invalid_argument("json: " + what + " at byte " +
                              std::to_string(offset));
}

class Parser {
 public:
  explicit Parser(std::string_view text) : text_(text) {}

  JsonValue parse_document() {
    JsonValue value = parse_value(0);
    skip_whitespace();
    if (pos_ != text_.size()) {
      fail_at(pos_, "trailing garbage after document");
    }
    return value;
  }

 private:
  std::string_view text_;
  std::size_t pos_ = 0;

  void skip_whitespace() {
    while (pos_ < text_.size()) {
      const char c = text_[pos_];
      if (c != ' ' && c != '\t' && c != '\n' && c != '\r') {
        break;
      }
      ++pos_;
    }
  }

  char peek() {
    if (pos_ >= text_.size()) {
      fail_at(pos_, "unexpected end of input");
    }
    return text_[pos_];
  }

  void expect(char c) {
    if (peek() != c) {
      fail_at(pos_, std::string("expected '") + c + "'");
    }
    ++pos_;
  }

  bool consume_literal(std::string_view literal) {
    if (text_.substr(pos_, literal.size()) != literal) {
      return false;
    }
    pos_ += literal.size();
    return true;
  }

  JsonValue parse_value(int depth) {
    if (depth > kMaxDepth) {
      fail_at(pos_, "nesting too deep");
    }
    skip_whitespace();
    const char c = peek();
    switch (c) {
      case '{':
        return parse_object(depth);
      case '[':
        return parse_array(depth);
      case '"':
        return JsonValue::string(parse_string());
      case 't':
        if (consume_literal("true")) {
          return JsonValue::boolean(true);
        }
        fail_at(pos_, "invalid literal");
      case 'f':
        if (consume_literal("false")) {
          return JsonValue::boolean(false);
        }
        fail_at(pos_, "invalid literal");
      case 'n':
        if (consume_literal("null")) {
          return JsonValue::null();
        }
        fail_at(pos_, "invalid literal");
      default:
        return parse_number();
    }
  }

  JsonValue parse_object(int depth) {
    expect('{');
    JsonValue value = JsonValue::object();
    skip_whitespace();
    if (peek() == '}') {
      ++pos_;
      return value;
    }
    while (true) {
      skip_whitespace();
      std::string key = parse_string();
      if (value.find(key) != nullptr) {
        fail_at(pos_, "duplicate object key \"" + key + "\"");
      }
      skip_whitespace();
      expect(':');
      value.as_object().emplace_back(std::move(key), parse_value(depth + 1));
      skip_whitespace();
      const char next = peek();
      if (next == ',') {
        ++pos_;
        continue;
      }
      if (next == '}') {
        ++pos_;
        return value;
      }
      fail_at(pos_, "expected ',' or '}' in object");
    }
  }

  JsonValue parse_array(int depth) {
    expect('[');
    JsonValue value = JsonValue::array();
    skip_whitespace();
    if (peek() == ']') {
      ++pos_;
      return value;
    }
    while (true) {
      value.push_back(parse_value(depth + 1));
      skip_whitespace();
      const char next = peek();
      if (next == ',') {
        ++pos_;
        continue;
      }
      if (next == ']') {
        ++pos_;
        return value;
      }
      fail_at(pos_, "expected ',' or ']' in array");
    }
  }

  std::string parse_string() {
    expect('"');
    std::string out;
    while (true) {
      if (pos_ >= text_.size()) {
        fail_at(pos_, "unterminated string");
      }
      const char c = text_[pos_++];
      if (c == '"') {
        return out;
      }
      if (static_cast<unsigned char>(c) < 0x20) {
        fail_at(pos_ - 1, "raw control character in string");
      }
      if (c != '\\') {
        out.push_back(c);
        continue;
      }
      if (pos_ >= text_.size()) {
        fail_at(pos_, "unterminated escape");
      }
      const char esc = text_[pos_++];
      switch (esc) {
        case '"':
          out.push_back('"');
          break;
        case '\\':
          out.push_back('\\');
          break;
        case '/':
          out.push_back('/');
          break;
        case 'b':
          out.push_back('\b');
          break;
        case 'f':
          out.push_back('\f');
          break;
        case 'n':
          out.push_back('\n');
          break;
        case 'r':
          out.push_back('\r');
          break;
        case 't':
          out.push_back('\t');
          break;
        case 'u':
          append_utf8(out, parse_hex4());
          break;
        default:
          fail_at(pos_ - 1, "invalid escape");
      }
    }
  }

  std::uint32_t parse_hex4() {
    std::uint32_t value = 0;
    for (int i = 0; i < 4; ++i) {
      if (pos_ >= text_.size()) {
        fail_at(pos_, "unterminated \\u escape");
      }
      const char c = text_[pos_++];
      value <<= 4U;
      if (c >= '0' && c <= '9') {
        value |= static_cast<std::uint32_t>(c - '0');
      } else if (c >= 'a' && c <= 'f') {
        value |= static_cast<std::uint32_t>(c - 'a' + 10);
      } else if (c >= 'A' && c <= 'F') {
        value |= static_cast<std::uint32_t>(c - 'A' + 10);
      } else {
        fail_at(pos_ - 1, "invalid hex digit in \\u escape");
      }
    }
    return value;
  }

  static void append_utf8(std::string& out, std::uint32_t cp) {
    // BMP only; surrogate pairs are not needed for scenario content, and an
    // unpaired surrogate is rejected rather than silently mangled.
    if (cp >= 0xD800 && cp <= 0xDFFF) {
      throw std::invalid_argument("json: surrogate \\u escapes unsupported");
    }
    if (cp < 0x80) {
      out.push_back(static_cast<char>(cp));
    } else if (cp < 0x800) {
      out.push_back(static_cast<char>(0xC0U | (cp >> 6U)));
      out.push_back(static_cast<char>(0x80U | (cp & 0x3FU)));
    } else {
      out.push_back(static_cast<char>(0xE0U | (cp >> 12U)));
      out.push_back(static_cast<char>(0x80U | ((cp >> 6U) & 0x3FU)));
      out.push_back(static_cast<char>(0x80U | (cp & 0x3FU)));
    }
  }

  JsonValue parse_number() {
    const std::size_t start = pos_;
    if (pos_ < text_.size() && text_[pos_] == '-') {
      ++pos_;
    }
    auto eat_digits = [&] {
      const std::size_t before = pos_;
      while (pos_ < text_.size() && text_[pos_] >= '0' && text_[pos_] <= '9') {
        ++pos_;
      }
      return pos_ > before;
    };
    if (!eat_digits()) {
      fail_at(pos_, "invalid number");
    }
    if (pos_ < text_.size() && text_[pos_] == '.') {
      ++pos_;
      if (!eat_digits()) {
        fail_at(pos_, "digits required after decimal point");
      }
    }
    if (pos_ < text_.size() && (text_[pos_] == 'e' || text_[pos_] == 'E')) {
      ++pos_;
      if (pos_ < text_.size() && (text_[pos_] == '+' || text_[pos_] == '-')) {
        ++pos_;
      }
      if (!eat_digits()) {
        fail_at(pos_, "digits required in exponent");
      }
    }
    const std::string token(text_.substr(start, pos_ - start));
    const auto parsed = parse_double(token);
    if (!parsed.has_value() || !std::isfinite(*parsed)) {
      fail_at(start, "unrepresentable number");
    }
    return JsonValue::number(*parsed);
  }
};

}  // namespace

JsonValue JsonValue::null() { return JsonValue{}; }

JsonValue JsonValue::boolean(bool value) {
  JsonValue v;
  v.kind_ = Kind::kBool;
  v.bool_ = value;
  return v;
}

JsonValue JsonValue::number(double value) {
  require(std::isfinite(value), "json numbers must be finite");
  JsonValue v;
  v.kind_ = Kind::kNumber;
  v.number_ = value;
  return v;
}

JsonValue JsonValue::string(std::string value) {
  JsonValue v;
  v.kind_ = Kind::kString;
  v.string_ = std::move(value);
  return v;
}

JsonValue JsonValue::array() {
  JsonValue v;
  v.kind_ = Kind::kArray;
  return v;
}

JsonValue JsonValue::object() {
  JsonValue v;
  v.kind_ = Kind::kObject;
  return v;
}

bool JsonValue::as_bool() const {
  require(is_bool(), "json value is not a bool");
  return bool_;
}

double JsonValue::as_number() const {
  require(is_number(), "json value is not a number");
  return number_;
}

const std::string& JsonValue::as_string() const {
  require(is_string(), "json value is not a string");
  return string_;
}

const JsonArray& JsonValue::as_array() const {
  require(is_array(), "json value is not an array");
  return array_;
}

JsonArray& JsonValue::as_array() {
  require(is_array(), "json value is not an array");
  return array_;
}

const JsonMembers& JsonValue::as_object() const {
  require(is_object(), "json value is not an object");
  return members_;
}

JsonMembers& JsonValue::as_object() {
  require(is_object(), "json value is not an object");
  return members_;
}

const JsonValue* JsonValue::find(std::string_view key) const {
  require(is_object(), "json value is not an object");
  for (const auto& [name, value] : members_) {
    if (name == key) {
      return &value;
    }
  }
  return nullptr;
}

const JsonValue& JsonValue::at(std::string_view key) const {
  const JsonValue* value = find(key);
  if (value == nullptr) {
    throw std::invalid_argument("json: missing key \"" + std::string(key) +
                                "\"");
  }
  return *value;
}

void JsonValue::set(std::string_view key, JsonValue value) {
  require(is_object(), "json value is not an object");
  for (auto& [name, existing] : members_) {
    if (name == key) {
      existing = std::move(value);
      return;
    }
  }
  members_.emplace_back(std::string(key), std::move(value));
}

void JsonValue::push_back(JsonValue value) {
  require(is_array(), "json value is not an array");
  array_.push_back(std::move(value));
}

std::string json_number(double value) {
  // Integral values render as integers so "2" survives a round-trip as "2";
  // everything else uses %.17g, which round-trips IEEE doubles exactly.
  if (value == std::floor(value) && std::abs(value) < 1e15) {
    return std::to_string(static_cast<long long>(value));
  }
  return std::string(format_g17(value).view());
}

void JsonValue::write(std::string& out, bool pretty, int indent) const {
  auto newline = [&](int level) {
    if (pretty) {
      out.push_back('\n');
      out.append(static_cast<std::size_t>(level) * 2, ' ');
    }
  };
  switch (kind_) {
    case Kind::kNull:
      out += "null";
      return;
    case Kind::kBool:
      out += bool_ ? "true" : "false";
      return;
    case Kind::kNumber:
      out += json_number(number_);
      return;
    case Kind::kString:
      out.push_back('"');
      out += json_escape(string_);
      out.push_back('"');
      return;
    case Kind::kArray: {
      if (array_.empty()) {
        out += "[]";
        return;
      }
      out.push_back('[');
      bool first = true;
      for (const JsonValue& element : array_) {
        if (!first) {
          out.push_back(',');
        }
        first = false;
        newline(indent + 1);
        element.write(out, pretty, indent + 1);
      }
      newline(indent);
      out.push_back(']');
      return;
    }
    case Kind::kObject: {
      if (members_.empty()) {
        out += "{}";
        return;
      }
      out.push_back('{');
      bool first = true;
      for (const auto& [name, value] : members_) {
        if (!first) {
          out.push_back(',');
        }
        first = false;
        newline(indent + 1);
        out.push_back('"');
        out += json_escape(name);
        out += pretty ? "\": " : "\":";
        value.write(out, pretty, indent + 1);
      }
      newline(indent);
      out.push_back('}');
      return;
    }
  }
  unreachable("corrupt json kind");
}

std::string JsonValue::dump(bool pretty) const {
  std::string out;
  write(out, pretty, 0);
  if (pretty) {
    out.push_back('\n');
  }
  return out;
}

JsonValue parse_json(std::string_view text) {
  return Parser(text).parse_document();
}

}  // namespace anyqos::util
