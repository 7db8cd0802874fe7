#include "src/sim/scenario.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdio>
#include <set>
#include <stdexcept>
#include <string>

#include "src/net/topology_io.h"

namespace anyqos::sim {
namespace {

using util::JsonValue;

/// A scenario exercising every block and entry list the format defines.
Scenario full_scenario() {
  Scenario scenario;
  scenario.name = "kitchen-sink";
  scenario.topology = "mci";
  scenario.seed = 7;
  scenario.lambda = 25.0;
  scenario.mean_holding_s = 60.0;
  scenario.flow_bandwidth_bps = 64'000.0;
  scenario.sources = {0, 3, 5};
  scenario.algorithm = "WD/D+H";
  scenario.max_tries = 3;
  scenario.alpha = 0.25;
  scenario.anycast_share = 0.4;
  scenario.group = {2, 11, 18};
  scenario.failover_readmit = true;
  scenario.path_repair = true;
  scenario.warmup_s = 10.0;
  scenario.measure_s = 200.0;
  scenario.drain_max_events = 1'000'000;
  scenario.drain_max_sim_s = 500.0;
  scenario.resilience.emplace();
  scenario.resilience->loss_probability = 0.05;
  scenario.resilience->hop_delay_s = 0.01;
  scenario.reconvergence.emplace();
  scenario.reconvergence->policy = "flooding";
  scenario.reconvergence->param_s = 0.05;
  scenario.governor.emplace();
  scenario.governor->min_tries = 1;
  scenario.governor->breaker_cooldown_s = 30.0;
  scenario.axes.link_rate = 0.02;
  scenario.axes.link_mean_repair_s = 40.0;
  scenario.link_faults.push_back(single_fault(0, 1, 40.0, 80.0));
  scenario.churn.push_back(single_churn(1, 60.0, 100.0));
  scenario.node_faults.push_back(single_node_fault(9, 150.0, 190.0));
  scenario.regional_outages.push_back(RegionalOutageSpec{17, 1, 120.0, 160.0});
  control::TimedDirective directive;
  directive.apply_at = 50.0;
  directive.directive.knob = control::Knob::kRetrialCeiling;
  directive.directive.value = 2.0;
  scenario.ops.push_back(directive);
  return scenario;
}

/// The member `key` of a JSON object, for in-place edits.
JsonValue& member(JsonValue& object, std::string_view key) {
  for (auto& [name, value] : object.as_object()) {
    if (name == key) {
      return value;
    }
  }
  throw std::logic_error("no member " + std::string(key));
}

void erase_member(JsonValue& object, std::string_view key) {
  std::erase_if(object.as_object(), [key](const auto& entry) { return entry.first == key; });
}

/// full_scenario() as a document with `path` (object keys, then "0" for the
/// first entry of a list) set to `value`.
JsonValue full_document_with(std::initializer_list<std::string_view> path, JsonValue value) {
  JsonValue document = scenario_to_json(full_scenario());
  JsonValue* target = &document;
  for (const std::string_view key : path) {
    target = key == "0" ? &target->as_array().front() : &member(*target, key);
  }
  *target = std::move(value);
  return document;
}

/// The reader must reject `document`, naming the problem with `needle`.
void expect_rejected(const JsonValue& document, const std::string& needle) {
  try {
    (void)scenario_from_json(document);
    ADD_FAILURE() << "accepted a document the reader should reject with: " << needle;
  } catch (const std::invalid_argument& error) {
    EXPECT_NE(std::string(error.what()).find(needle), std::string::npos) << error.what();
  }
}

TEST(Scenario, SaveLoadRoundTripIsByteIdentical) {
  const std::string first = save_scenario(full_scenario());
  const std::string second = save_scenario(load_scenario(first));
  EXPECT_EQ(first, second);
}

TEST(Scenario, DefaultScenarioRoundTrips) {
  const Scenario scenario;
  EXPECT_EQ(save_scenario(scenario), save_scenario(load_scenario(save_scenario(scenario))));
}

TEST(Scenario, OmitsAbsentOptionalBlocks) {
  const std::string text = save_scenario(Scenario{});
  EXPECT_EQ(text.find("resilience"), std::string::npos);
  EXPECT_EQ(text.find("governor"), std::string::npos);
  EXPECT_EQ(text.find("axes"), std::string::npos);
  EXPECT_EQ(text.find("link_faults"), std::string::npos);
  const Scenario loaded = load_scenario(text);
  EXPECT_FALSE(loaded.resilience.has_value());
  EXPECT_FALSE(loaded.governor.has_value());
  EXPECT_EQ(loaded.fault_entries(), 0U);
}

TEST(Scenario, RejectsMissingOrWrongSchema) {
  EXPECT_THROW(load_scenario("{}"), std::invalid_argument);
  EXPECT_THROW(load_scenario(R"({"schema":"anyqos.scenario/999"})"),
               std::invalid_argument);
  EXPECT_THROW(load_scenario("[]"), std::invalid_argument);
}

TEST(Scenario, RejectsUnknownKeys) {
  // Root level.
  std::string text = save_scenario(Scenario{});
  text.insert(text.rfind('}'), R"(,"surprise": 1)");
  EXPECT_THROW(load_scenario(text), std::invalid_argument);
  // Nested block: misspelled workload knob.
  Scenario scenario;
  std::string nested = save_scenario(scenario);
  const std::string needle = "\"lambda\"";
  nested.replace(nested.find(needle), needle.size(), "\"lamdba\"");
  EXPECT_THROW(load_scenario(nested), std::invalid_argument);
}

TEST(Scenario, RejectsInvalidFaultWindows) {
  std::string text = save_scenario(full_scenario());
  // Flip the seeded link fault's window: fail after repair (40/80 -> 90/80).
  const std::string fail_key = "\"fail_at\": 40";
  ASSERT_NE(text.find(fail_key), std::string::npos);
  text.replace(text.find(fail_key), fail_key.size(), "\"fail_at\": 90");
  EXPECT_THROW(load_scenario(text), std::invalid_argument);
}

TEST(Scenario, RejectsBadOps) {
  const std::string base = save_scenario(full_scenario());
  // Unsorted directives.
  std::string unsorted = base;
  const std::string ops_entry = R"("t": 50,)";
  ASSERT_NE(unsorted.find(ops_entry), std::string::npos);
  std::string doubled = unsorted;
  doubled.replace(
      doubled.find("\"ops\": ["), 8,
      "\"ops\": [{\"t\": 60, \"knob\": \"retrial-ceiling\", \"value\": 2},");
  EXPECT_THROW(load_scenario(doubled), std::invalid_argument);
  // Unknown knob.
  std::string unknown = base;
  const std::string knob = "retrial-ceiling";
  unknown.replace(unknown.find(knob), knob.size(), "warp-factor");
  EXPECT_THROW(load_scenario(unknown), std::invalid_argument);
  // Out-of-domain value (retrial-ceiling must be a positive integer).
  std::string zero = base;
  const std::string value = "\"value\": 2";
  zero.replace(zero.find(value), value.size(), "\"value\": 0");
  EXPECT_THROW(load_scenario(zero), std::invalid_argument);
}

TEST(Scenario, RejectsBadReconvergencePolicy) {
  std::string text = save_scenario(full_scenario());
  const std::string policy = "\"policy\": \"flooding\"";
  text.replace(text.find(policy), policy.size(), "\"policy\": \"psychic\"");
  EXPECT_THROW(load_scenario(text), std::invalid_argument);
}

/// A one-member scenario on `topology` with the given reconvergence block.
Scenario reconverging(const std::string& topology, const std::string& policy, double param_s) {
  Scenario scenario;
  scenario.topology = topology;
  scenario.group = {0};
  scenario.sources = {1};
  scenario.reconvergence = ScenarioReconvergence{policy, param_s};
  return scenario;
}

/// The reconvergence delay make_scenario_run lowers that scenario to.
double lowered_delay(const std::string& topology, const std::string& policy, double param_s) {
  return make_scenario_run(reconverging(topology, policy, param_s))
      ->config.reconvergence_delay_s.value();
}

TEST(ReconvergencePolicy, InstantIsZeroEverywhere) {
  EXPECT_DOUBLE_EQ(lowered_delay("line:2", "instant", 0.0), 0.0);
  EXPECT_DOUBLE_EQ(lowered_delay("mci", "instant", 0.0), 0.0);
  // Without a block the routes stay static: no delay at all.
  Scenario scenario = reconverging("mci", "instant", 0.0);
  scenario.reconvergence.reset();
  EXPECT_FALSE(make_scenario_run(scenario)->config.reconvergence_delay_s.has_value());
}

TEST(ReconvergencePolicy, FixedIgnoresTopologyShape) {
  EXPECT_DOUBLE_EQ(lowered_delay("line:2", "fixed", 2.5), 2.5);
  EXPECT_DOUBLE_EQ(lowered_delay("grid:5x5", "fixed", 2.5), 2.5);
  // However the delay was set, the simulation refuses a negative one.
  const auto run = make_scenario_run(reconverging("line:2", "fixed", 2.5));
  run->config.reconvergence_delay_s = -1.0;
  EXPECT_THROW(Simulation(run->topology, run->config), std::invalid_argument);
}

TEST(Scenario, LowersFloodingToTheDiameterDelay) {
  EXPECT_DOUBLE_EQ(lowered_delay("ring:8", "flooding", 0.1), 0.5);  // diameter 4
  EXPECT_DOUBLE_EQ(lowered_delay("line:9", "flooding", 0.1), 0.9);  // diameter 8
  EXPECT_THROW(make_scenario_run(reconverging("ring:8", "flooding", 0.0)),
               std::invalid_argument);
}

TEST(Scenario, BuildsEveryTopologyFamily) {
  EXPECT_EQ(build_scenario_topology("mci").router_count(), 19U);
  EXPECT_EQ(build_scenario_topology("line:4").router_count(), 4U);
  EXPECT_EQ(build_scenario_topology("ring:5").router_count(), 5U);
  EXPECT_EQ(build_scenario_topology("star:6").router_count(), 6U);
  EXPECT_EQ(build_scenario_topology("grid:2x3").router_count(), 6U);
  EXPECT_THROW(build_scenario_topology("torus:4"), std::invalid_argument);
  EXPECT_THROW(build_scenario_topology("grid:4"), std::invalid_argument);
  // A malformed number is a bad spec, not a bad_optional_access.
  for (const char* spec : {"line:abc", "star:", "grid:3xq", "waxman:10x-1", "ring:5x5"}) {
    EXPECT_THROW(build_scenario_topology(spec), std::invalid_argument) << spec;
  }
  try {
    build_scenario_topology("grid:3xq");
    FAIL() << "expected std::invalid_argument";
  } catch (const std::invalid_argument& error) {
    const std::string message = error.what();
    EXPECT_NE(message.find("'grid:3xq'"), std::string::npos) << message;
    EXPECT_NE(message.find("grid:RxC"), std::string::npos) << message;
  }

  const std::string path = ::testing::TempDir() + "/anyqos_scenario_ring.topo";
  net::save_topology(build_scenario_topology("ring:7"), path);
  EXPECT_EQ(build_scenario_topology("file:" + path).router_count(), 7U);
  std::remove(path.c_str());
  EXPECT_THROW(build_scenario_topology("file:" + path), std::invalid_argument);
}

TEST(Scenario, RequiresEveryKeySaveWrites) {
  const JsonValue full = scenario_to_json(full_scenario());
  const std::set<std::string> optional = {"resilience", "reconvergence", "governor",
                                          "axes",       "link_faults",   "churn",
                                          "node_faults", "regional_outages", "ops"};
  for (const auto& [key, value] : full.as_object()) {
    JsonValue document = full;
    erase_member(document, key);
    if (optional.contains(key)) {
      EXPECT_NO_THROW((void)scenario_from_json(document)) << key;
    } else {
      expect_rejected(document, "missing key \"" + key + "\"");
    }
    // Inside a block (or a list's entries) every key save_scenario writes
    // is required too.
    const JsonValue* block = &value;
    if (value.is_array()) {
      block = &value.as_array().front();
    }
    if (!block->is_object()) {
      continue;
    }
    for (const auto& [inner, unused] : block->as_object()) {
      JsonValue nested = full;
      JsonValue& parent = member(nested, key);
      erase_member(parent.is_array() ? parent.as_array().front() : parent, inner);
      expect_rejected(nested, "missing key \"" + inner + "\"");
    }
  }
}

TEST(Scenario, RejectsValuesNothingDownstreamChecks) {
  // ED ignores alpha, the instant policy ignores param_s, a zero-rate axis
  // never draws, and the lowering never reads the name: only the reader
  // can catch these.
  expect_rejected(full_document_with({"name"}, JsonValue::string("")), "must be non-empty");
  expect_rejected(full_document_with({"system", "alpha"}, JsonValue::number(1.5)),
                  "\"alpha\" must lie in [0, 1]");
  expect_rejected(full_document_with({"system", "alpha"}, JsonValue::number(-0.1)),
                  "\"alpha\" must lie in [0, 1]");
  expect_rejected(full_document_with({"resilience", "backoff_jitter"}, JsonValue::number(2.0)),
                  "\"backoff_jitter\" must lie in [0, 1]");
  expect_rejected(full_document_with({"reconvergence", "param_s"}, JsonValue::number(-1.0)),
                  "\"param_s\" must be non-negative");
  for (const std::string rate : {"link_rate", "churn_rate", "node_rate"}) {
    expect_rejected(full_document_with({"axes", rate}, JsonValue::number(-1.0)),
                    rate + "\" must be non-negative");
  }
  for (const std::string mean : {"link_mean_repair_s", "churn_mean_down_s", "node_mean_repair_s"}) {
    expect_rejected(full_document_with({"axes", mean}, JsonValue::number(0.0)),
                    mean + "\" must be positive");
  }
}

// Out-of-range integers must be rejected, never wrapped onto a valid value
// (router 2^32 + 18 used to load as router 18).
TEST(Scenario, RejectsNodeIdsThatDoNotFitUint32) {
  JsonValue group = JsonValue::array();
  group.push_back(JsonValue::number(2.0));
  group.push_back(JsonValue::number(4294967314.0));
  expect_rejected(full_document_with({"system", "group"}, std::move(group)),
                  "\"group\" must be an integer in [0, 2^32)");
  expect_rejected(full_document_with({"link_faults", "0", "a"}, JsonValue::number(4294967296.0)),
                  "\"a\" must be an integer in [0, 2^32)");
  expect_rejected(
      full_document_with({"node_faults", "0", "node"}, JsonValue::number(4294967305.0)),
      "\"node\" must be an integer in [0, 2^32)");
  // The largest NodeId still loads (the topology, not the reader, rejects it).
  EXPECT_EQ(scenario_from_json(full_document_with({"node_faults", "0", "node"},
                                                  JsonValue::number(4294967295.0)))
                .node_faults.front()
                .node,
            4294967295U);
}

TEST(Scenario, RejectsCountsThatDoNotFitSizeT) {
  expect_rejected(full_document_with({"system", "max_tries"}, JsonValue::number(1e20)),
                  "\"max_tries\" must be an integer in [0, 2^64)");
  expect_rejected(full_document_with({"churn", "0", "member"}, JsonValue::number(1e20)),
                  "\"member\" must be an integer in [0, 2^64)");
  expect_rejected(full_document_with({"run", "drain_max_events"}, JsonValue::number(-1.0)),
                  "\"drain_max_events\" must be an integer in [0, 2^64)");
  expect_rejected(
      full_document_with({"regional_outages", "0", "radius_hops"}, JsonValue::number(1.5)),
      "\"radius_hops\" must be an integer in [0, 2^64)");
}

TEST(Scenario, RejectsSeedsOutsideUint64) {
  for (const double seed : {1e30, 18446744073709551616.0, -1.0, 1.5}) {
    expect_rejected(full_document_with({"seed"}, JsonValue::number(seed)),
                    "\"seed\" must be an integer in [0, 2^64)");
  }
}

TEST(Scenario, LoadsSeedsAbove2To53AsSaved) {
  // 64-bit splitmix seeds are saved as the nearest double and must load as
  // exactly that double's integer, not narrowed to 2^53.
  for (const std::uint64_t seed : {0x9E3779B97F4A7C15ULL, 0xFFFFFFFFFFFFF800ULL}) {
    Scenario scenario = full_scenario();
    scenario.seed = seed;
    const std::string text = save_scenario(scenario);
    const Scenario loaded = load_scenario(text);
    EXPECT_EQ(loaded.seed, static_cast<std::uint64_t>(static_cast<double>(seed)));
    EXPECT_GT(loaded.seed, std::uint64_t{1} << 53);
    EXPECT_EQ(save_scenario(loaded), text);
  }
}

TEST(Scenario, MakeScenarioRunValidatesCrossFieldConstraints) {
  Scenario scenario = full_scenario();
  scenario.group.clear();
  EXPECT_THROW(make_scenario_run(scenario), std::invalid_argument);

  scenario = full_scenario();
  scenario.reconvergence.reset();  // path_repair still set
  EXPECT_THROW(make_scenario_run(scenario), std::invalid_argument);

  scenario = full_scenario();
  scenario.governor.reset();  // ops still present
  EXPECT_THROW(make_scenario_run(scenario), std::invalid_argument);
}

TEST(Scenario, MaterializeRandomAxesMatchesLazyExpansion) {
  Scenario original = full_scenario();
  original.axes.link_rate = 0.05;
  original.axes.churn_rate = 0.02;
  original.axes.node_rate = 0.01;

  Scenario expanded = original;
  const net::Topology topology = build_scenario_topology(original.topology);
  materialize_random_axes(expanded, topology);
  EXPECT_EQ(expanded.axes.link_rate, 0.0);
  EXPECT_EQ(expanded.axes.churn_rate, 0.0);
  EXPECT_EQ(expanded.axes.node_rate, 0.0);
  EXPECT_GE(expanded.fault_entries(), original.fault_entries());

  // Idempotent once the axes are zero.
  Scenario again = expanded;
  materialize_random_axes(again, topology);
  EXPECT_EQ(save_scenario(again), save_scenario(expanded));

  // The lowered configs draw identical schedules either way.
  const auto lazy = make_scenario_run(original);
  const auto eager = make_scenario_run(expanded);
  ASSERT_EQ(lazy->config.faults.size(), eager->config.faults.size());
  for (std::size_t i = 0; i < lazy->config.faults.size(); ++i) {
    EXPECT_EQ(lazy->config.faults[i].a, eager->config.faults[i].a);
    EXPECT_EQ(lazy->config.faults[i].b, eager->config.faults[i].b);
    EXPECT_EQ(lazy->config.faults[i].fail_at, eager->config.faults[i].fail_at);
    EXPECT_EQ(lazy->config.faults[i].repair_at, eager->config.faults[i].repair_at);
  }
  ASSERT_EQ(lazy->config.churn.size(), eager->config.churn.size());
  for (std::size_t i = 0; i < lazy->config.churn.size(); ++i) {
    EXPECT_EQ(lazy->config.churn[i].member_index, eager->config.churn[i].member_index);
    EXPECT_EQ(lazy->config.churn[i].down_at, eager->config.churn[i].down_at);
    EXPECT_EQ(lazy->config.churn[i].up_at, eager->config.churn[i].up_at);
  }
  ASSERT_EQ(lazy->config.node_faults.size(), eager->config.node_faults.size());
  for (std::size_t i = 0; i < lazy->config.node_faults.size(); ++i) {
    EXPECT_EQ(lazy->config.node_faults[i].node, eager->config.node_faults[i].node);
    EXPECT_EQ(lazy->config.node_faults[i].fail_at, eager->config.node_faults[i].fail_at);
    EXPECT_EQ(lazy->config.node_faults[i].repair_at,
              eager->config.node_faults[i].repair_at);
  }
}

}  // namespace
}  // namespace anyqos::sim
