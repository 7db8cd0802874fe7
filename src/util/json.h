// Minimal deterministic JSON value model: parse, build, serialize.
//
// Built for the scenario plane (sim/scenario.h): a scenario file must
// round-trip byte-identically through save -> load -> save, so objects
// preserve insertion order (a sorted or hashed map would either reorder
// user files or trip the determinism contract's unordered-iteration rule).
// Numbers render via json_number, which the ops log (control/directive.cpp)
// uses too: integral values via integer formatting, everything else via
// "%.17g", which round-trips IEEE doubles exactly.
//
// This is not a general-purpose JSON library: no comments, no trailing
// commas, UTF-8 passthrough (\uXXXX escapes are emitted for control
// characters only and parsed for the BMP), parse depth capped to keep
// adversarial fuzz inputs from overflowing the stack.
#pragma once

#include <cstddef>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

namespace anyqos::util {

class JsonValue;

/// Insertion-ordered object representation; lookup is linear, which is fine
/// for the tens-of-keys documents this library exists for.
using JsonMembers = std::vector<std::pair<std::string, JsonValue>>;
using JsonArray = std::vector<JsonValue>;

class JsonValue {
 public:
  enum class Kind { kNull, kBool, kNumber, kString, kArray, kObject };

  JsonValue() = default;
  static JsonValue null();
  static JsonValue boolean(bool value);
  static JsonValue number(double value);
  static JsonValue string(std::string value);
  static JsonValue array();
  static JsonValue object();

  Kind kind() const { return kind_; }
  bool is_null() const { return kind_ == Kind::kNull; }
  bool is_bool() const { return kind_ == Kind::kBool; }
  bool is_number() const { return kind_ == Kind::kNumber; }
  bool is_string() const { return kind_ == Kind::kString; }
  bool is_array() const { return kind_ == Kind::kArray; }
  bool is_object() const { return kind_ == Kind::kObject; }

  /// Typed accessors; throw std::invalid_argument on a kind mismatch so the
  /// scenario loader surfaces schema errors with context instead of UB.
  bool as_bool() const;
  double as_number() const;
  const std::string& as_string() const;
  const JsonArray& as_array() const;
  JsonArray& as_array();
  const JsonMembers& as_object() const;
  JsonMembers& as_object();

  /// Object helpers. `find` returns nullptr when absent; `at` throws.
  const JsonValue* find(std::string_view key) const;
  const JsonValue& at(std::string_view key) const;
  /// Appends (or overwrites, preserving position) a member.
  void set(std::string_view key, JsonValue value);
  /// Appends an array element.
  void push_back(JsonValue value);

  /// Serializes compactly (no whitespace) or pretty-printed with two-space
  /// indentation; both are deterministic for a given value.
  std::string dump(bool pretty = false) const;

 private:
  Kind kind_ = Kind::kNull;
  bool bool_ = false;
  double number_ = 0.0;
  std::string string_;
  JsonArray array_;
  JsonMembers members_;

  void write(std::string& out, bool pretty, int indent) const;
};

/// Formats a double for JSON (scenario files, the ops log): integer
/// rendering when the value is integral and fits, "%.17g" otherwise (exact
/// double round-trip).
std::string json_number(double value);

/// Parses a complete JSON document. Throws std::invalid_argument with a
/// byte-offset diagnostic on malformed input or trailing garbage.
JsonValue parse_json(std::string_view text);

}  // namespace anyqos::util
