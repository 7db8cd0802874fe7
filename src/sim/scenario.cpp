#include "src/sim/scenario.h"

#include <cmath>
#include <fstream>
#include <initializer_list>
#include <limits>
#include <sstream>
#include <utility>

#include "src/core/selector.h"
#include "src/net/reconvergence.h"
#include "src/net/topologies.h"
#include "src/net/topology_io.h"
#include "src/util/require.h"
#include "src/util/strings.h"

namespace anyqos::sim {
namespace {

using util::JsonValue;

[[noreturn]] void fail(std::string_view where, const std::string& what) {
  throw std::invalid_argument("scenario: " + std::string(where) + ": " + what);
}

std::string quoted(std::string_view key) {
  std::string text = "\"";
  text += key;
  text += '"';
  return text;
}

/// Typo safety for repro files: every object's keys must come from its
/// schema — a misspelled knob silently falling back to a default would make
/// a committed repro lie about what it reproduces.
void check_keys(const JsonValue& object, std::string_view where,
                std::initializer_list<std::string_view> allowed) {
  for (const auto& [key, value] : object.as_object()) {
    bool known = false;
    for (const std::string_view candidate : allowed) {
      if (key == candidate) {
        known = true;
        break;
      }
    }
    if (!known) {
      fail(where, "unknown key " + quoted(key));
    }
  }
}

/// The other half of typo safety: every key save_scenario writes is
/// required, so no file leans on a reader default that could later move.
const JsonValue& field(const JsonValue& object, std::string_view where, std::string_view key) {
  const JsonValue* value = object.find(key);
  if (value == nullptr) {
    fail(where, "missing key " + quoted(key));
  }
  return *value;
}

/// Domains the reader bounds itself, for values nothing downstream checks
/// (ED ignores alpha, a zero-rate axis never draws). Workload rates, shares
/// and router ranges are left to make_scenario_run and the Simulation
/// constructor.
enum class Domain : std::uint8_t { kNonNegative, kPositive, kUnit };

double get_number(const JsonValue& object, std::string_view where, std::string_view key) {
  const JsonValue& value = field(object, where, key);
  if (!value.is_number()) {
    fail(where, quoted(key) + " must be a number");
  }
  return value.as_number();
}

double get_number(const JsonValue& object, std::string_view where, std::string_view key,
                  Domain domain) {
  const double number = get_number(object, where, key);
  if (domain == Domain::kNonNegative && !(number >= 0.0)) {
    fail(where, quoted(key) + " must be non-negative");
  }
  if (domain == Domain::kPositive && !(number > 0.0)) {
    fail(where, quoted(key) + " must be positive");
  }
  if (domain == Domain::kUnit && !(number >= 0.0 && number <= 1.0)) {
    fail(where, quoted(key) + " must lie in [0, 1]");
  }
  return number;
}

/// A non-negative integer that fits `T` (NodeId, a size_t count, the
/// 64-bit seed). JSON numbers are doubles, and every integral double below
/// 2^digits(T) converts exactly — a seed above 2^53 loads as the double it
/// was saved as, while 2^32 never wraps to router 0.
template <typename T>
T as_uint(const JsonValue& value, std::string_view where, std::string_view key) {
  constexpr double kLimit = static_cast<double>(std::numeric_limits<T>::max()) + 1.0;
  if (!value.is_number() || !(value.as_number() >= 0.0) || !(value.as_number() < kLimit) ||
      value.as_number() != std::floor(value.as_number())) {
    fail(where, quoted(key) + " must be an integer in [0, 2^" +
                    std::to_string(std::numeric_limits<T>::digits) + ")");
  }
  return static_cast<T>(value.as_number());
}

template <typename T>
T get_uint(const JsonValue& object, std::string_view where, std::string_view key) {
  return as_uint<T>(field(object, where, key), where, key);
}

bool get_bool(const JsonValue& object, std::string_view where, std::string_view key) {
  const JsonValue& value = field(object, where, key);
  if (!value.is_bool()) {
    fail(where, quoted(key) + " must be a boolean");
  }
  return value.as_bool();
}

std::string get_string(const JsonValue& object, std::string_view where, std::string_view key) {
  const JsonValue& value = field(object, where, key);
  if (!value.is_string()) {
    fail(where, quoted(key) + " must be a string");
  }
  return value.as_string();
}

std::vector<net::NodeId> get_nodes(const JsonValue& object, std::string_view where,
                                   std::string_view key) {
  const JsonValue& value = field(object, where, key);
  if (!value.is_array()) {
    fail(where, quoted(key) + " must be an array of node ids");
  }
  std::vector<net::NodeId> nodes;
  for (const JsonValue& element : value.as_array()) {
    nodes.push_back(as_uint<net::NodeId>(element, where, key));
  }
  return nodes;
}

JsonValue nodes_to_json(const std::vector<net::NodeId>& nodes) {
  JsonValue array = JsonValue::array();
  for (const net::NodeId node : nodes) {
    array.push_back(JsonValue::number(static_cast<double>(node)));
  }
  return array;
}

bool axes_enabled(const FaultAxes& axes) {
  return axes.link_rate > 0.0 || axes.churn_rate > 0.0 || axes.node_rate > 0.0;
}

/// The `count` 'x'-separated unsigned fields after the colon of topology
/// `spec`; throws std::invalid_argument naming the spec and its `form`.
std::vector<std::size_t> spec_fields(const std::string& spec, std::size_t count,
                                     std::string_view form) {
  const auto parts = util::split(std::string_view(spec).substr(spec.find(':') + 1), 'x');
  std::vector<std::size_t> fields;
  for (const std::string& part : parts) {
    if (const auto value = util::parse_unsigned(part)) {
      fields.push_back(static_cast<std::size_t>(*value));
    }
  }
  util::require(parts.size() == count && fields.size() == count,
                "malformed topology spec '" + spec + "' (expected " + std::string(form) + ")");
  return fields;
}

}  // namespace

net::Topology build_scenario_topology(const std::string& spec) {
  if (util::starts_with(spec, "file:")) {
    return net::load_topology(spec.substr(5));
  }
  if (spec == "mci") {
    return net::topologies::mci_backbone();
  }
  if (util::starts_with(spec, "line:")) {
    return net::topologies::line(spec_fields(spec, 1, "line:N")[0]);
  }
  if (util::starts_with(spec, "ring:")) {
    return net::topologies::ring(spec_fields(spec, 1, "ring:N")[0]);
  }
  if (util::starts_with(spec, "star:")) {
    return net::topologies::star(spec_fields(spec, 1, "star:N")[0]);
  }
  if (util::starts_with(spec, "grid:")) {
    const auto dims = spec_fields(spec, 2, "grid:RxC");
    return net::topologies::grid(dims[0], dims[1]);
  }
  if (util::starts_with(spec, "waxman:")) {
    const auto parts = spec_fields(spec, 2, "waxman:NxSEED");
    return net::topologies::waxman(parts[0], 0.6, 0.5, parts[1]);
  }
  util::require(false, "unknown topology spec '" + spec +
                           "' (mci, line:N, ring:N, star:N, grid:RxC, waxman:NxSEED, file:PATH)");
  util::unreachable("build_scenario_topology");
}

util::JsonValue scenario_to_json(const Scenario& scenario) {
  JsonValue root = JsonValue::object();
  root.set("schema", JsonValue::string(std::string(kScenarioSchema)));
  root.set("name", JsonValue::string(scenario.name));
  root.set("topology", JsonValue::string(scenario.topology));
  root.set("seed", JsonValue::number(static_cast<double>(scenario.seed)));

  JsonValue workload = JsonValue::object();
  workload.set("lambda", JsonValue::number(scenario.lambda));
  workload.set("mean_holding_s", JsonValue::number(scenario.mean_holding_s));
  workload.set("flow_bandwidth_bps", JsonValue::number(scenario.flow_bandwidth_bps));
  workload.set("sources", nodes_to_json(scenario.sources));
  root.set("workload", std::move(workload));

  JsonValue system = JsonValue::object();
  system.set("algorithm", JsonValue::string(scenario.algorithm));
  system.set("max_tries", JsonValue::number(static_cast<double>(scenario.max_tries)));
  system.set("alpha", JsonValue::number(scenario.alpha));
  system.set("anycast_share", JsonValue::number(scenario.anycast_share));
  system.set("group", nodes_to_json(scenario.group));
  system.set("failover_readmit", JsonValue::boolean(scenario.failover_readmit));
  system.set("path_repair", JsonValue::boolean(scenario.path_repair));
  root.set("system", std::move(system));

  JsonValue run = JsonValue::object();
  run.set("warmup_s", JsonValue::number(scenario.warmup_s));
  run.set("measure_s", JsonValue::number(scenario.measure_s));
  run.set("drain_to_quiescence", JsonValue::boolean(scenario.drain_to_quiescence));
  run.set("drain_max_events",
          JsonValue::number(static_cast<double>(scenario.drain_max_events)));
  run.set("drain_max_sim_s", JsonValue::number(scenario.drain_max_sim_s));
  root.set("run", std::move(run));

  if (scenario.resilience.has_value()) {
    const ScenarioResilience& r = *scenario.resilience;
    JsonValue block = JsonValue::object();
    block.set("loss_probability", JsonValue::number(r.loss_probability));
    block.set("hop_delay_s", JsonValue::number(r.hop_delay_s));
    block.set("hop_jitter_s", JsonValue::number(r.hop_jitter_s));
    block.set("retransmit_timeout_s", JsonValue::number(r.retransmit_timeout_s));
    block.set("backoff_factor", JsonValue::number(r.backoff_factor));
    block.set("backoff_jitter", JsonValue::number(r.backoff_jitter));
    block.set("max_retransmits",
              JsonValue::number(static_cast<double>(r.max_retransmits)));
    block.set("orphan_hold_s", JsonValue::number(r.orphan_hold_s));
    root.set("resilience", std::move(block));
  }
  if (scenario.reconvergence.has_value()) {
    JsonValue block = JsonValue::object();
    block.set("policy", JsonValue::string(scenario.reconvergence->policy));
    block.set("param_s", JsonValue::number(scenario.reconvergence->param_s));
    root.set("reconvergence", std::move(block));
  }
  if (scenario.governor.has_value()) {
    const ScenarioGovernor& g = *scenario.governor;
    JsonValue block = JsonValue::object();
    block.set("adaptive_retrial", JsonValue::boolean(g.adaptive_retrial));
    block.set("member_breakers", JsonValue::boolean(g.member_breakers));
    block.set("window_s", JsonValue::number(g.window_s));
    block.set("min_tries", JsonValue::number(static_cast<double>(g.min_tries)));
    block.set("breaker_threshold",
              JsonValue::number(static_cast<double>(g.breaker_threshold)));
    block.set("breaker_cooldown_s", JsonValue::number(g.breaker_cooldown_s));
    block.set("shed_budget_msgs_per_s", JsonValue::number(g.shed_budget_msgs_per_s));
    block.set("shed_burst_msgs", JsonValue::number(g.shed_burst_msgs));
    root.set("governor", std::move(block));
  }
  if (axes_enabled(scenario.axes)) {
    JsonValue block = JsonValue::object();
    block.set("link_rate", JsonValue::number(scenario.axes.link_rate));
    block.set("link_mean_repair_s", JsonValue::number(scenario.axes.link_mean_repair_s));
    block.set("churn_rate", JsonValue::number(scenario.axes.churn_rate));
    block.set("churn_mean_down_s", JsonValue::number(scenario.axes.churn_mean_down_s));
    block.set("node_rate", JsonValue::number(scenario.axes.node_rate));
    block.set("node_mean_repair_s", JsonValue::number(scenario.axes.node_mean_repair_s));
    root.set("axes", std::move(block));
  }

  if (!scenario.link_faults.empty()) {
    JsonValue array = JsonValue::array();
    for (const LinkFault& fault : scenario.link_faults) {
      JsonValue entry = JsonValue::object();
      entry.set("a", JsonValue::number(static_cast<double>(fault.a)));
      entry.set("b", JsonValue::number(static_cast<double>(fault.b)));
      entry.set("fail_at", JsonValue::number(fault.fail_at));
      entry.set("repair_at", JsonValue::number(fault.repair_at));
      array.push_back(std::move(entry));
    }
    root.set("link_faults", std::move(array));
  }
  if (!scenario.churn.empty()) {
    JsonValue array = JsonValue::array();
    for (const MemberChurnEvent& event : scenario.churn) {
      JsonValue entry = JsonValue::object();
      entry.set("member", JsonValue::number(static_cast<double>(event.member_index)));
      entry.set("down_at", JsonValue::number(event.down_at));
      entry.set("up_at", JsonValue::number(event.up_at));
      array.push_back(std::move(entry));
    }
    root.set("churn", std::move(array));
  }
  if (!scenario.node_faults.empty()) {
    JsonValue array = JsonValue::array();
    for (const NodeFault& fault : scenario.node_faults) {
      JsonValue entry = JsonValue::object();
      entry.set("node", JsonValue::number(static_cast<double>(fault.node)));
      entry.set("fail_at", JsonValue::number(fault.fail_at));
      entry.set("repair_at", JsonValue::number(fault.repair_at));
      array.push_back(std::move(entry));
    }
    root.set("node_faults", std::move(array));
  }
  if (!scenario.regional_outages.empty()) {
    JsonValue array = JsonValue::array();
    for (const RegionalOutageSpec& outage : scenario.regional_outages) {
      JsonValue entry = JsonValue::object();
      entry.set("epicenter", JsonValue::number(static_cast<double>(outage.epicenter)));
      entry.set("radius_hops",
                JsonValue::number(static_cast<double>(outage.radius_hops)));
      entry.set("fail_at", JsonValue::number(outage.fail_at));
      entry.set("repair_at", JsonValue::number(outage.repair_at));
      array.push_back(std::move(entry));
    }
    root.set("regional_outages", std::move(array));
  }
  if (!scenario.ops.empty()) {
    JsonValue array = JsonValue::array();
    for (const control::TimedDirective& timed : scenario.ops) {
      JsonValue entry = JsonValue::object();
      entry.set("t", JsonValue::number(timed.apply_at));
      entry.set("knob", JsonValue::string(control::to_string(timed.directive.knob)));
      entry.set("value", JsonValue::number(timed.directive.value));
      array.push_back(std::move(entry));
    }
    root.set("ops", std::move(array));
  }
  return root;
}

Scenario scenario_from_json(const util::JsonValue& document) {
  if (!document.is_object()) {
    fail("document", "top level must be an object");
  }
  check_keys(document, "document",
             {"schema", "name", "topology", "seed", "workload", "system", "run",
              "resilience", "reconvergence", "governor", "axes", "link_faults", "churn",
              "node_faults", "regional_outages", "ops"});
  const std::string schema = get_string(document, "document", "schema");
  if (schema != kScenarioSchema) {
    fail("document", "schema must be \"" + std::string(kScenarioSchema) + "\" (got \"" +
                         schema + "\")");
  }

  Scenario scenario;
  scenario.name = get_string(document, "document", "name");
  if (scenario.name.empty()) {
    fail("document", "\"name\" must be non-empty");
  }
  scenario.topology = get_string(document, "document", "topology");
  scenario.seed = get_uint<std::uint64_t>(document, "document", "seed");

  const JsonValue& workload = field(document, "document", "workload");
  check_keys(workload, "workload", {"lambda", "mean_holding_s", "flow_bandwidth_bps", "sources"});
  scenario.lambda = get_number(workload, "workload", "lambda");
  scenario.mean_holding_s = get_number(workload, "workload", "mean_holding_s");
  scenario.flow_bandwidth_bps = get_number(workload, "workload", "flow_bandwidth_bps");
  scenario.sources = get_nodes(workload, "workload", "sources");

  const JsonValue& system = field(document, "document", "system");
  check_keys(system, "system",
             {"algorithm", "max_tries", "alpha", "anycast_share", "group", "failover_readmit",
              "path_repair"});
  scenario.algorithm = get_string(system, "system", "algorithm");
  scenario.max_tries = get_uint<std::size_t>(system, "system", "max_tries");
  // Only the WD/D+H selector reads (and range-checks) alpha.
  scenario.alpha = get_number(system, "system", "alpha", Domain::kUnit);
  scenario.anycast_share = get_number(system, "system", "anycast_share");
  scenario.group = get_nodes(system, "system", "group");
  scenario.failover_readmit = get_bool(system, "system", "failover_readmit");
  scenario.path_repair = get_bool(system, "system", "path_repair");

  const JsonValue& run = field(document, "document", "run");
  check_keys(run, "run",
             {"warmup_s", "measure_s", "drain_to_quiescence", "drain_max_events",
              "drain_max_sim_s"});
  scenario.warmup_s = get_number(run, "run", "warmup_s");
  scenario.measure_s = get_number(run, "run", "measure_s");
  scenario.drain_to_quiescence = get_bool(run, "run", "drain_to_quiescence");
  scenario.drain_max_events = get_uint<std::size_t>(run, "run", "drain_max_events");
  scenario.drain_max_sim_s = get_number(run, "run", "drain_max_sim_s");

  if (const JsonValue* block = document.find("resilience"); block != nullptr) {
    check_keys(*block, "resilience",
               {"loss_probability", "hop_delay_s", "hop_jitter_s", "retransmit_timeout_s",
                "backoff_factor", "backoff_jitter", "max_retransmits", "orphan_hold_s"});
    ScenarioResilience& r = scenario.resilience.emplace();
    r.loss_probability = get_number(*block, "resilience", "loss_probability");
    r.hop_delay_s = get_number(*block, "resilience", "hop_delay_s");
    r.hop_jitter_s = get_number(*block, "resilience", "hop_jitter_s");
    r.retransmit_timeout_s = get_number(*block, "resilience", "retransmit_timeout_s");
    r.backoff_factor = get_number(*block, "resilience", "backoff_factor");
    r.backoff_jitter = get_number(*block, "resilience", "backoff_jitter", Domain::kUnit);
    r.max_retransmits = get_uint<std::size_t>(*block, "resilience", "max_retransmits");
    r.orphan_hold_s = get_number(*block, "resilience", "orphan_hold_s");
  }
  if (const JsonValue* block = document.find("reconvergence"); block != nullptr) {
    check_keys(*block, "reconvergence", {"policy", "param_s"});
    ScenarioReconvergence& r = scenario.reconvergence.emplace();
    r.policy = get_string(*block, "reconvergence", "policy");
    // The instant policy ignores param_s, so it is bounded here.
    r.param_s = get_number(*block, "reconvergence", "param_s", Domain::kNonNegative);
    if (r.policy != "instant" && r.policy != "fixed" && r.policy != "flooding") {
      fail("reconvergence", "policy must be instant, fixed, or flooding");
    }
  }
  if (const JsonValue* block = document.find("governor"); block != nullptr) {
    check_keys(*block, "governor",
               {"adaptive_retrial", "member_breakers", "window_s", "min_tries",
                "breaker_threshold", "breaker_cooldown_s", "shed_budget_msgs_per_s",
                "shed_burst_msgs"});
    ScenarioGovernor& g = scenario.governor.emplace();
    g.adaptive_retrial = get_bool(*block, "governor", "adaptive_retrial");
    g.member_breakers = get_bool(*block, "governor", "member_breakers");
    g.window_s = get_number(*block, "governor", "window_s");
    g.min_tries = get_uint<std::size_t>(*block, "governor", "min_tries");
    g.breaker_threshold = get_uint<std::size_t>(*block, "governor", "breaker_threshold");
    g.breaker_cooldown_s = get_number(*block, "governor", "breaker_cooldown_s");
    g.shed_budget_msgs_per_s = get_number(*block, "governor", "shed_budget_msgs_per_s");
    g.shed_burst_msgs = get_number(*block, "governor", "shed_burst_msgs");
  }
  if (const JsonValue* block = document.find("axes"); block != nullptr) {
    // An axis at rate 0 never draws, so its rate and mean are bounded here.
    check_keys(*block, "axes",
               {"link_rate", "link_mean_repair_s", "churn_rate", "churn_mean_down_s",
                "node_rate", "node_mean_repair_s"});
    FaultAxes& axes = scenario.axes;
    axes.link_rate = get_number(*block, "axes", "link_rate", Domain::kNonNegative);
    axes.link_mean_repair_s =
        get_number(*block, "axes", "link_mean_repair_s", Domain::kPositive);
    axes.churn_rate = get_number(*block, "axes", "churn_rate", Domain::kNonNegative);
    axes.churn_mean_down_s = get_number(*block, "axes", "churn_mean_down_s", Domain::kPositive);
    axes.node_rate = get_number(*block, "axes", "node_rate", Domain::kNonNegative);
    axes.node_mean_repair_s =
        get_number(*block, "axes", "node_mean_repair_s", Domain::kPositive);
  }

  if (const JsonValue* array = document.find("link_faults"); array != nullptr) {
    for (const JsonValue& element : array->as_array()) {
      check_keys(element, "link_faults", {"a", "b", "fail_at", "repair_at"});
      scenario.link_faults.push_back(
          single_fault(get_uint<net::NodeId>(element, "link_faults", "a"),
                       get_uint<net::NodeId>(element, "link_faults", "b"),
                       get_number(element, "link_faults", "fail_at"),
                       get_number(element, "link_faults", "repair_at")));
    }
  }
  if (const JsonValue* array = document.find("churn"); array != nullptr) {
    for (const JsonValue& element : array->as_array()) {
      check_keys(element, "churn", {"member", "down_at", "up_at"});
      scenario.churn.push_back(single_churn(get_uint<std::size_t>(element, "churn", "member"),
                                            get_number(element, "churn", "down_at"),
                                            get_number(element, "churn", "up_at")));
    }
  }
  if (const JsonValue* array = document.find("node_faults"); array != nullptr) {
    for (const JsonValue& element : array->as_array()) {
      check_keys(element, "node_faults", {"node", "fail_at", "repair_at"});
      scenario.node_faults.push_back(
          single_node_fault(get_uint<net::NodeId>(element, "node_faults", "node"),
                            get_number(element, "node_faults", "fail_at"),
                            get_number(element, "node_faults", "repair_at")));
    }
  }
  if (const JsonValue* array = document.find("regional_outages"); array != nullptr) {
    for (const JsonValue& element : array->as_array()) {
      check_keys(element, "regional_outages",
                 {"epicenter", "radius_hops", "fail_at", "repair_at"});
      RegionalOutageSpec outage;
      outage.epicenter = get_uint<net::NodeId>(element, "regional_outages", "epicenter");
      outage.radius_hops = get_uint<std::size_t>(element, "regional_outages", "radius_hops");
      outage.fail_at = get_number(element, "regional_outages", "fail_at");
      outage.repair_at = get_number(element, "regional_outages", "repair_at");
      if (!(outage.repair_at > outage.fail_at) || outage.fail_at < 0.0) {
        fail("regional_outages", "repair_at must follow a non-negative fail_at");
      }
      scenario.regional_outages.push_back(outage);
    }
  }
  if (const JsonValue* array = document.find("ops"); array != nullptr) {
    double last_t = 0.0;
    for (const JsonValue& element : array->as_array()) {
      check_keys(element, "ops", {"t", "knob", "value"});
      control::TimedDirective timed;
      timed.apply_at = get_number(element, "ops", "t");
      if (timed.apply_at < last_t) {
        fail("ops", "directives must be sorted by t");
      }
      last_t = timed.apply_at;
      const std::string knob = get_string(element, "ops", "knob");
      const auto parsed = control::parse_knob(knob);
      if (!parsed.has_value()) {
        fail("ops", "unknown knob " + quoted(knob));
      }
      timed.directive.knob = *parsed;
      timed.directive.value = get_number(element, "ops", "value");
      if (const auto error =
              control::validate_directive(timed.directive.knob, timed.directive.value);
          error.has_value()) {
        fail("ops", *error);
      }
      scenario.ops.push_back(timed);
    }
  }
  return scenario;
}

std::string save_scenario(const Scenario& scenario) {
  return scenario_to_json(scenario).dump(/*pretty=*/true);
}

Scenario load_scenario(std::string_view text) {
  return scenario_from_json(util::parse_json(text));
}

Scenario load_scenario_file(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  util::require(in.good(), "cannot open scenario file " + path);
  std::ostringstream text;
  text << in.rdbuf();
  return load_scenario(text.str());
}

void materialize_random_axes(Scenario& scenario, const net::Topology& topology) {
  if (!axes_enabled(scenario.axes)) {
    return;
  }
  const double horizon = scenario.warmup_s + scenario.measure_s;
  ScenarioSchedules drawn = scenario_schedules(topology, scenario.group.size(), horizon,
                                               scenario.axes, scenario.seed);
  // Append after the explicit entries, matching make_scenario_run's order,
  // so the materialized scenario runs byte-identically to the original.
  scenario.churn.insert(scenario.churn.end(), drawn.churn.begin(), drawn.churn.end());
  scenario.link_faults.insert(scenario.link_faults.end(), drawn.link_faults.begin(),
                              drawn.link_faults.end());
  scenario.node_faults.insert(scenario.node_faults.end(), drawn.node_faults.begin(),
                              drawn.node_faults.end());
  scenario.axes = FaultAxes{};
}

std::unique_ptr<ScenarioRun> make_scenario_run(const Scenario& scenario) {
  auto run = std::make_unique<ScenarioRun>();
  run->topology = build_scenario_topology(scenario.topology);
  const net::Topology& topology = run->topology;
  util::require(!scenario.group.empty(), "scenario needs a non-empty group");
  util::require(!scenario.sources.empty(), "scenario needs a non-empty source set");

  SimulationConfig config;
  config.traffic.arrival_rate = scenario.lambda;
  config.traffic.mean_holding_s = scenario.mean_holding_s;
  config.traffic.flow_bandwidth_bps = scenario.flow_bandwidth_bps;
  config.traffic.sources = scenario.sources;
  config.group_members = scenario.group;
  config.anycast_share = scenario.anycast_share;
  config.algorithm = core::parse_algorithm(scenario.algorithm);
  config.max_tries = scenario.max_tries;
  config.alpha = scenario.alpha;
  config.warmup_s = scenario.warmup_s;
  config.measure_s = scenario.measure_s;
  config.seed = scenario.seed;
  config.failover_readmit = scenario.failover_readmit;
  config.path_repair = scenario.path_repair;
  config.drain_to_quiescence = scenario.drain_to_quiescence;
  config.drain_max_events = scenario.drain_max_events;
  config.drain_max_sim_s = scenario.drain_max_sim_s;

  if (scenario.resilience.has_value()) {
    const ScenarioResilience& r = *scenario.resilience;
    signaling::ResilienceOptions options;
    options.faults.loss_probability = r.loss_probability;
    options.faults.hop_delay_s = r.hop_delay_s;
    options.faults.hop_jitter_s = r.hop_jitter_s;
    options.retransmit_timeout_s = r.retransmit_timeout_s;
    options.backoff_factor = r.backoff_factor;
    options.backoff_jitter = r.backoff_jitter;
    options.max_retransmits = r.max_retransmits;
    options.orphan_hold_s = r.orphan_hold_s;
    config.resilience = options;
  }

  // Explicit entries first, then the axes' draws — the order
  // materialize_random_axes preserves.
  config.faults = scenario.link_faults;
  config.churn = scenario.churn;
  config.node_faults = scenario.node_faults;
  if (axes_enabled(scenario.axes)) {
    const double horizon = scenario.warmup_s + scenario.measure_s;
    ScenarioSchedules drawn = scenario_schedules(topology, scenario.group.size(), horizon,
                                                 scenario.axes, scenario.seed);
    config.churn.insert(config.churn.end(), drawn.churn.begin(), drawn.churn.end());
    config.faults.insert(config.faults.end(), drawn.link_faults.begin(),
                         drawn.link_faults.end());
    config.node_faults.insert(config.node_faults.end(), drawn.node_faults.begin(),
                              drawn.node_faults.end());
  }
  for (const RegionalOutageSpec& outage : scenario.regional_outages) {
    const std::vector<NodeFault> expanded = regional_outage(
        topology, outage.epicenter, outage.radius_hops, outage.fail_at, outage.repair_at);
    config.node_faults.insert(config.node_faults.end(), expanded.begin(), expanded.end());
  }

  if (scenario.reconvergence.has_value()) {
    const ScenarioReconvergence& r = *scenario.reconvergence;
    if (r.policy == "instant") {
      config.reconvergence_delay_s = 0.0;
    } else if (r.policy == "fixed") {
      config.reconvergence_delay_s = r.param_s;
    } else if (r.policy == "flooding") {
      config.reconvergence_delay_s = net::flooding_delay_s(topology, r.param_s);
    } else {
      util::require(false, "unknown reconvergence policy '" + r.policy + "'");
    }
  }
  util::require(!scenario.path_repair || scenario.reconvergence.has_value(),
                "scenario: path_repair requires a reconvergence block");

  if (scenario.governor.has_value()) {
    const ScenarioGovernor& g = *scenario.governor;
    control::GovernorOptions& options = config.governor.emplace();
    options.adaptive_retrial = g.adaptive_retrial;
    options.member_breakers = g.member_breakers;
    options.window_s = g.window_s;
    options.min_tries = g.min_tries;
    options.breaker.failure_threshold = g.breaker_threshold;
    options.breaker.cooldown_s = g.breaker_cooldown_s;
    options.shed_budget_msgs_per_s = g.shed_budget_msgs_per_s;
    options.shed_burst_msgs = g.shed_burst_msgs;
  }
  util::require(scenario.ops.empty() || scenario.governor.has_value(),
                "scenario: ops directives require a governor block");
  config.ops_replay = scenario.ops;

  run->config = std::move(config);
  return run;
}

}  // namespace anyqos::sim
