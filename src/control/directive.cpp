#include "src/control/directive.h"

#include <cmath>
#include <istream>
#include <ostream>
#include <stdexcept>

#include "src/util/json.h"
#include "src/util/require.h"
#include "src/util/strings.h"

namespace anyqos::control {

namespace {

// One field of an ops log line, required with its JSON type.
const util::JsonValue& log_field(const util::JsonValue& entry, const std::string& where,
                                 std::string_view key, util::JsonValue::Kind kind) {
  const util::JsonValue* value = entry.find(key);
  util::require(value != nullptr && value->kind() == kind,
                where + ": \"" + std::string(key) + "\" is missing or of the wrong type");
  return *value;
}

}  // namespace

std::string to_string(Knob knob) {
  switch (knob) {
    case Knob::kRetrialCeiling:
      return "retrial-ceiling";
    case Knob::kRetrialFloor:
      return "retrial-floor";
    case Knob::kShedBudget:
      return "shed-budget";
    case Knob::kShedBurst:
      return "shed-burst";
    case Knob::kBreakerThreshold:
      return "breaker-threshold";
    case Knob::kBreakerCooldown:
      return "breaker-cooldown";
  }
  util::unreachable("Knob");
}

std::optional<Knob> parse_knob(std::string_view name) {
  for (const Knob knob :
       {Knob::kRetrialCeiling, Knob::kRetrialFloor, Knob::kShedBudget, Knob::kShedBurst,
        Knob::kBreakerThreshold, Knob::kBreakerCooldown}) {
    if (name == to_string(knob)) {
      return knob;
    }
  }
  return std::nullopt;
}

std::optional<std::string> validate_directive(Knob knob, double value) {
  if (!std::isfinite(value)) {
    return "value must be finite";
  }
  switch (knob) {
    case Knob::kRetrialCeiling:
    case Knob::kRetrialFloor:
    case Knob::kBreakerThreshold:
      if (value < 1.0 || value != std::floor(value)) {
        return to_string(knob) + " must be an integer >= 1";
      }
      return std::nullopt;
    case Knob::kShedBudget:
    case Knob::kShedBurst:
      if (value < 0.0) {
        return to_string(knob) + " must be >= 0";
      }
      return std::nullopt;
    case Knob::kBreakerCooldown:
      if (value <= 0.0) {
        return to_string(knob) + " must be > 0";
      }
      return std::nullopt;
  }
  util::unreachable("Knob");
}

void DirectiveMailbox::post(const ControlDirective& directive) {
  const std::lock_guard<std::mutex> lock(mutex_);
  pending_.push_back(directive);
  ++posted_;
}

std::vector<ControlDirective> DirectiveMailbox::drain() {
  const std::lock_guard<std::mutex> lock(mutex_);
  std::vector<ControlDirective> taken;
  taken.swap(pending_);
  return taken;
}

std::uint64_t DirectiveMailbox::posted() const {
  const std::lock_guard<std::mutex> lock(mutex_);
  return posted_;
}

void OpsLogWriter::record(double sim_time, const ControlDirective& directive,
                          double applied_value) {
  *out_ << "{\"ops\":\"directive\",\"t\":" << util::json_number(sim_time) << ",\"knob\":\""
        << to_string(directive.knob) << "\",\"value\":" << util::json_number(directive.value)
        << ",\"applied\":" << util::json_number(applied_value) << "}\n";
  ++entries_;
}

std::vector<TimedDirective> load_ops_log(std::istream& in) {
  std::vector<TimedDirective> directives;
  std::string line;
  std::size_t line_number = 0;
  while (std::getline(in, line)) {
    ++line_number;
    if (util::trim(line).empty()) {
      continue;
    }
    const std::string where = "ops log line " + std::to_string(line_number);
    util::JsonValue entry;
    try {
      entry = util::parse_json(line);
    } catch (const std::invalid_argument& error) {
      throw std::invalid_argument(where + " is not JSON: " + error.what());
    }
    // Exactly the keys OpsLogWriter writes: parse_json rejects duplicate
    // keys, so five members that include all five names are that set.
    util::require(entry.is_object() && entry.as_object().size() == 5,
                  where + " must hold exactly the keys ops, t, knob, value, applied");
    using Kind = util::JsonValue::Kind;
    util::require(log_field(entry, where, "ops", Kind::kString).as_string() == "directive",
                  where + " is not a directive");
    TimedDirective timed;
    timed.apply_at = log_field(entry, where, "t", Kind::kNumber).as_number();
    const std::optional<Knob> knob =
        parse_knob(log_field(entry, where, "knob", Kind::kString).as_string());
    util::require(knob.has_value(), where + " names an unknown knob");
    timed.directive.knob = *knob;
    timed.directive.value = log_field(entry, where, "value", Kind::kNumber).as_number();
    (void)log_field(entry, where, "applied", Kind::kNumber);  // replay re-derives it
    util::require(!validate_directive(timed.directive.knob, timed.directive.value).has_value(),
                  where + " fails validation");
    util::require(directives.empty() || directives.back().apply_at <= timed.apply_at,
                  "ops log times must be non-decreasing (" + where + ")");
    directives.push_back(timed);
  }
  return directives;
}

}  // namespace anyqos::control
