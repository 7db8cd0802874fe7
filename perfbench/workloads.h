// The benchmark's workloads, generated from the workload seed.
//
// Each workload is a fixed batch of simulations run to completion by one
// single-threaded process (a closed batch: there is no host-side arrival
// schedule). The simulator receives only the configs and scenario documents
// generated here; README.md records why each workload exists.
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "src/net/topology.h"
#include "src/sim/scenario.h"
#include "src/sim/simulation.h"

namespace perfbench {

/// How a config case's topology is built (part of its timed set-up).
enum class TopologyKind { kMci, kWaxman };

/// One simulation of a workload.
struct SimCase {
  std::string label;
  /// False: `topology` + `config` (a plain SimulationConfig, no planes).
  /// True: `scenario_text`, an anyqos.scenario/1 document judged by the
  /// chaos oracle.
  bool scenario = false;
  TopologyKind topology = TopologyKind::kMci;
  anyqos::sim::SimulationConfig config;
  std::string scenario_text;
};

struct Workload {
  std::string name;
  std::vector<SimCase> cases;
  /// Set-up repetitions per case and pass; the median is kept. MCI set-up
  /// takes milliseconds, so one sample is noise; waxman's takes seconds.
  std::size_t setup_repeats = 1;
  /// Index of the case the plane-overhead matrix runs on, if any.
  std::optional<std::size_t> plane_case;
};

/// Generates workload `name` from `seed`. Throws std::invalid_argument on an
/// unknown name.
Workload make_workload(const std::string& name, std::uint64_t seed);

/// A case built up to its first event. Member order matters: the
/// simulation refers to the topology (config cases) or to the scenario run.
struct Prepared {
  Prepared() = default;
  Prepared(Prepared&&) = default;
  /// Member-wise assignment would free the old topology while the old
  /// simulation that refers to it is still alive.
  Prepared& operator=(Prepared&&) = delete;

  std::unique_ptr<anyqos::net::Topology> topology;
  std::optional<anyqos::sim::Scenario> scenario;
  std::unique_ptr<anyqos::sim::ScenarioRun> run;
  std::unique_ptr<anyqos::sim::Simulation> simulation;
};

/// Builds a config case's topology, the first step of its set-up.
anyqos::net::Topology build_topology(TopologyKind kind);

/// Builds `c` up to its first event: topology, route table, scenario parse
/// and lowering, and the Simulation constructor. `attach` may point planes
/// of the config at caller-owned objects before construction.
Prepared prepare(const SimCase& c,
                 const std::function<void(anyqos::sim::SimulationConfig&)>& attach = {});

}  // namespace perfbench
