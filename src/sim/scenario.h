// The scenario plane: one serializable description of one chaos run.
//
// A Scenario captures, in a single JSON document, every axis a run can be
// perturbed on — workload, system under test, explicit link faults, member
// churn, node crashes, correlated regional outages, random fault axes
// (re-drawn deterministically from the scenario seed via the shared
// scenario_schedules builder), reconvergence policy, governor knobs, and
// replayed ops directives. Save -> load -> run is byte-identical to the
// in-memory run (tested), so any run — a hand-written experiment, a CI
// chaos cell, or a chaosfuzz-shrunk repro — is a committed, replayable
// artifact.
//
// It is the only run description: dacsim's flags and every chaossim cell
// are written as a Scenario and lowered by make_scenario_run, like a
// --scenario file, a chaosfuzz candidate or a perfbench chaos cell. One
// reader validates a file: load_scenario, then make_scenario_run, then the
// Simulation constructor — the chaos oracle's invalid: phase. A malformed
// file is rejected before its first event (`chaosfuzz --replay=FILE`
// checks one).
#pragma once

#include <cstdint>
#include <memory>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "src/control/directive.h"
#include "src/net/topology.h"
#include "src/sim/faults.h"
#include "src/sim/simulation.h"
#include "src/util/json.h"

namespace anyqos::sim {

/// Schema tag carried by every scenario file ("schema" key).
inline constexpr std::string_view kScenarioSchema = "anyqos.scenario/1";

/// Resilient-signaling knobs (signaling::ResilienceOptions flattened with
/// its FaultPlaneOptions). Presence of the block turns the resilient
/// protocol on; absence keeps the paper's fault-free walk.
struct ScenarioResilience {
  double loss_probability = 0.0;
  double hop_delay_s = 0.0;
  double hop_jitter_s = 0.0;
  double retransmit_timeout_s = 1.0;
  double backoff_factor = 2.0;
  double backoff_jitter = 0.1;
  std::size_t max_retransmits = 3;
  double orphan_hold_s = 30.0;
};

/// Routing reconvergence model: "instant", "fixed" (param_s = delay), or
/// "flooding" (param_s = per-round delay, priced by net::flooding_delay_s).
/// make_scenario_run lowers it to SimulationConfig::reconvergence_delay_s.
struct ScenarioReconvergence {
  std::string policy = "instant";
  double param_s = 0.0;
};

/// Overload-governor configuration (control::GovernorOptions subset that
/// the runtime knobs address, plus the mechanism switches).
struct ScenarioGovernor {
  bool adaptive_retrial = true;
  bool member_breakers = true;
  double window_s = 50.0;
  std::size_t min_tries = 3;
  std::size_t breaker_threshold = 5;
  double breaker_cooldown_s = 60.0;
  double shed_budget_msgs_per_s = 0.0;
  double shed_burst_msgs = 0.0;
};

/// Correlated regional outage, kept symbolic (epicenter + radius) rather
/// than expanded so shrinking can drop it as one entry.
struct RegionalOutageSpec {
  net::NodeId epicenter = 0;
  std::size_t radius_hops = 0;
  double fail_at = 0.0;
  double repair_at = 0.0;
};

/// One complete, serializable chaos run description.
struct Scenario {
  std::string name = "scenario";
  std::string topology = "mci";  ///< build_scenario_topology spec
  std::uint64_t seed = 1;

  // Workload.
  double lambda = 20.0;
  double mean_holding_s = 180.0;
  double flow_bandwidth_bps = 64'000.0;
  std::vector<net::NodeId> sources;

  // System under test (DAC only — the fuzzable surface is the distributed
  // machinery; GDI and the centralized baseline have no signaling to break).
  std::string algorithm = "ED";
  std::size_t max_tries = 2;
  double alpha = 0.5;
  double anycast_share = 0.2;
  std::vector<net::NodeId> group;
  bool failover_readmit = true;
  bool path_repair = false;

  // Run control.
  double warmup_s = 0.0;  ///< chaos runs default warmup-free: exact reconciliation
  double measure_s = 2'000.0;
  bool drain_to_quiescence = true;
  std::size_t drain_max_events = 0;  ///< drain watchdog (0 = uncapped)
  double drain_max_sim_s = 0.0;

  // Optional planes.
  std::optional<ScenarioResilience> resilience;
  std::optional<ScenarioReconvergence> reconvergence;
  std::optional<ScenarioGovernor> governor;

  // Random fault axes, re-drawn from `seed` via scenario_schedules on every
  // run (so the file stays small); materialize_random_axes expands them
  // into the explicit lists below when a tool needs entry-level control.
  FaultAxes axes;

  // Explicit fault entries (applied in addition to the axes' draws).
  std::vector<LinkFault> link_faults;
  std::vector<MemberChurnEvent> churn;
  std::vector<NodeFault> node_faults;
  std::vector<RegionalOutageSpec> regional_outages;

  // Replayed ops directives (requires `governor`).
  std::vector<control::TimedDirective> ops;

  /// Total explicit fault entries (the shrinker's size metric).
  [[nodiscard]] std::size_t fault_entries() const {
    return link_faults.size() + churn.size() + node_faults.size() +
           regional_outages.size();
  }
};

/// Builds a topology from a scenario spec: "mci", "line:N", "ring:N",
/// "star:N", "grid:RxC", "waxman:NxSEED", or "file:PATH" (a topology file,
/// net::load_topology).
net::Topology build_scenario_topology(const std::string& spec);

/// Scenario -> JSON document (fixed key order, round-trip-exact numbers;
/// dump(true) of the result is the canonical file format).
util::JsonValue scenario_to_json(const Scenario& scenario);
/// JSON document -> Scenario. Throws std::invalid_argument on a wrong
/// schema tag, unknown or missing keys (every key save_scenario writes is
/// required), wrong types, integers that do not fit their field (NodeId,
/// size_t, the 64-bit seed), an empty name, alpha or backoff_jitter outside
/// [0, 1], negative axis rates or reconvergence param_s, non-positive axis
/// means, out-of-order fault windows, or bad ops.
Scenario scenario_from_json(const util::JsonValue& document);

/// Canonical file text (pretty JSON, trailing newline).
std::string save_scenario(const Scenario& scenario);
/// Parses + validates scenario file text.
Scenario load_scenario(std::string_view text);
/// load_scenario on the contents of the file at `path`.
Scenario load_scenario_file(const std::string& path);

/// Expands the random axes into the explicit entry lists (via the shared
/// scenario_schedules builder on `topology`) and zeroes the axes, so every
/// fault becomes an individually addressable entry. Idempotent once axes
/// are zero. The expanded scenario runs identically to the original.
void materialize_random_axes(Scenario& scenario, const net::Topology& topology);

/// Everything needed to run a scenario. `Simulation` keeps a reference to
/// `topology`, so keep this object alive and in place through run().
struct ScenarioRun {
  net::Topology topology;
  SimulationConfig config;
};

/// Lowers a scenario onto the simulation API: builds the topology, draws
/// the random axes, expands regional outages, prices the reconvergence
/// delay, and sets the optional planes. Validates cross-field constraints
/// (group/sources in range, path_repair requires reconvergence, ops require
/// governor). The result is heap-allocated so that its topology never
/// moves under a Simulation.
std::unique_ptr<ScenarioRun> make_scenario_run(const Scenario& scenario);

}  // namespace anyqos::sim
