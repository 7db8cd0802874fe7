#include "perfbench/workloads.h"

#include <sstream>
#include <stdexcept>

#include "src/core/selector.h"
#include "src/net/topologies.h"
#include "src/sim/experiment.h"

namespace perfbench {

namespace sim = anyqos::sim;
namespace net = anyqos::net;
namespace core = anyqos::core;

namespace {

// Run lengths (simulated seconds). Sized so one pass of a workload is a few
// host seconds on a current x86 core, short enough that a timed run holds
// several passes.
constexpr double kPaperWarmup = 1'000.0;
constexpr double kPaperMeasure = 5'000.0;
constexpr double kWaxmanWarmup = 600.0;
constexpr double kWaxmanMeasure = 600.0;
constexpr double kChaosMeasure = 5'000.0;

// The scale point: a sparse 1,000-router graph from net::topologies::waxman.
// The scenario spec "waxman:NxSEED" (alpha 0.6, beta 0.5) gives 303,990
// directed links at n = 1,000; these parameters give 6,080 and 4-hop mean
// routes.
constexpr std::size_t kWaxmanRouters = 1'000;
constexpr double kWaxmanAlpha = 0.05;
constexpr double kWaxmanBeta = 0.1;
constexpr std::uint64_t kWaxmanGraphSeed = 7;
constexpr std::size_t kWaxmanMembers = 50;
constexpr double kWaxmanLambda = 600.0;

/// splitmix64: decorrelates the per-simulation seeds derived from the
/// workload seed.
std::uint64_t mix(std::uint64_t seed, std::uint64_t salt) {
  std::uint64_t z = seed + 0x9E3779B97F4A7C15ULL * (salt + 1);
  z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ULL;
  z = (z ^ (z >> 27)) * 0x94D049BB133111EBULL;
  return z ^ (z >> 31);
}

std::string format_rate(double value) {
  std::ostringstream text;
  text << value;
  return text.str();
}

Workload paper_sweep(std::uint64_t seed) {
  struct System {
    const char* label;
    core::SelectionAlgorithm algorithm;
    std::size_t max_tries;
    bool gdi;
  };
  const System systems[] = {
      {"SP", core::SelectionAlgorithm::kShortestPath, 1, false},
      {"<ED,2>", core::SelectionAlgorithm::kEvenDistribution, 2, false},
      {"<WD/D+H,2>", core::SelectionAlgorithm::kDistanceHistory, 2, false},
      {"<WD/D+B,2>", core::SelectionAlgorithm::kDistanceBandwidth, 2, false},
      {"GDI", core::SelectionAlgorithm::kEvenDistribution, 2, true},
  };
  const sim::ExperimentModel model = sim::paper_model();
  Workload workload;
  workload.name = "paper_sweep";
  workload.setup_repeats = 5;
  // Common random numbers: every system at every rate sees one seed, as in
  // the figure benches.
  const std::uint64_t sim_seed = mix(seed, 1);
  for (const double lambda : {10.0, 25.0, 40.0}) {
    for (const System& system : systems) {
      SimCase c;
      c.label = std::string(system.label) + " lambda=" + format_rate(lambda);
      c.config = model.base_config(lambda);
      c.config.algorithm = system.algorithm;
      c.config.max_tries = system.max_tries;
      c.config.use_gdi = system.gdi;
      c.config.warmup_s = kPaperWarmup;
      c.config.measure_s = kPaperMeasure;
      c.config.seed = sim_seed;
      if (lambda == 25.0 && system.algorithm == core::SelectionAlgorithm::kDistanceHistory) {
        workload.plane_case = workload.cases.size();
      }
      workload.cases.push_back(std::move(c));
    }
  }
  return workload;
}

Workload waxman_scale(std::uint64_t seed) {
  Workload workload;
  workload.name = "waxman_scale";
  workload.setup_repeats = 1;
  SimCase c;
  c.label = "<WD/D+H,2> waxman n=1000 K=50 lambda=" + format_rate(kWaxmanLambda);
  c.topology = TopologyKind::kWaxman;
  sim::SimulationConfig& config = c.config;
  config.traffic.arrival_rate = kWaxmanLambda;
  config.traffic.mean_holding_s = 180.0;
  config.traffic.flow_bandwidth_bps = 64'000.0;
  for (net::NodeId id = 1; id < kWaxmanRouters; id += 2) {
    config.traffic.sources.push_back(id);
  }
  const std::size_t spacing = kWaxmanRouters / kWaxmanMembers;
  for (std::size_t k = 0; k < kWaxmanMembers; ++k) {
    config.group_members.push_back(static_cast<net::NodeId>(k * spacing));
  }
  config.anycast_share = 0.2;
  config.algorithm = core::SelectionAlgorithm::kDistanceHistory;
  config.max_tries = 2;
  config.warmup_s = kWaxmanWarmup;
  config.measure_s = kWaxmanMeasure;
  config.seed = mix(seed, 2);
  workload.cases.push_back(std::move(c));
  return workload;
}

Workload chaos_matrix(std::uint64_t seed) {
  const sim::ExperimentModel model = sim::paper_model();
  Workload workload;
  workload.name = "chaos_matrix";
  workload.setup_repeats = 5;
  std::uint64_t cell = 0;
  for (const double loss : {0.0, 0.05, 0.2}) {
    for (const double churn : {0.0, 0.002}) {
      for (const bool link_faults : {false, true}) {
        for (const bool crashes : {false, true}) {
          sim::Scenario scenario;
          scenario.name = "cell" + std::to_string(cell);
          scenario.topology = "mci";
          scenario.seed = mix(seed, 100 + cell);
          scenario.lambda = 10.0;
          scenario.mean_holding_s = model.mean_holding_s;
          scenario.flow_bandwidth_bps = model.flow_bandwidth_bps;
          scenario.sources = model.sources;
          scenario.algorithm = "ED";
          scenario.max_tries = 2;
          scenario.anycast_share = model.anycast_share;
          scenario.group = model.group_members;
          scenario.warmup_s = 0.0;
          scenario.measure_s = kChaosMeasure;
          scenario.drain_to_quiescence = true;
          // The oracle's own fallback caps, written into the scenario so a
          // bare lowering of the same document drains under the same watchdog.
          scenario.drain_max_events = 10'000'000;
          scenario.drain_max_sim_s = 10'000.0;
          // chaossim's control-plane defaults.
          sim::ScenarioResilience resilience;
          resilience.loss_probability = loss;
          resilience.hop_delay_s = 0.0005;
          resilience.retransmit_timeout_s = 0.5;
          resilience.max_retransmits = 2;
          resilience.orphan_hold_s = 20.0;
          scenario.resilience = resilience;
          // chaossim --adaptive: AIMD floor 1, short breaker cooldown.
          sim::ScenarioGovernor governor;
          governor.adaptive_retrial = true;
          governor.member_breakers = true;
          governor.min_tries = 1;
          governor.breaker_cooldown_s = 30.0;
          scenario.governor = governor;
          scenario.axes.churn_rate = churn;
          scenario.axes.churn_mean_down_s = 120.0;
          if (link_faults) {
            scenario.axes.link_rate = 2e-4;
            scenario.axes.link_mean_repair_s = 150.0;
          }
          if (crashes) {
            scenario.axes.node_rate = 1.0 / 20'000.0;
            scenario.axes.node_mean_repair_s = 120.0;
            scenario.reconvergence = sim::ScenarioReconvergence{"flooding", 1.0};
            scenario.path_repair = true;
          }
          SimCase c;
          c.label = "loss=" + format_rate(loss) + " churn=" + format_rate(churn) +
                    " links=" + (link_faults ? "on" : "off") +
                    " crashes=" + (crashes ? "on" : "off");
          c.scenario = true;
          c.scenario_text = sim::save_scenario(scenario);
          workload.cases.push_back(std::move(c));
          ++cell;
        }
      }
    }
  }
  return workload;
}

}  // namespace

Workload make_workload(const std::string& name, std::uint64_t seed) {
  if (name == "paper_sweep") {
    return paper_sweep(seed);
  }
  if (name == "waxman_scale") {
    return waxman_scale(seed);
  }
  if (name == "chaos_matrix") {
    return chaos_matrix(seed);
  }
  throw std::invalid_argument("unknown workload '" + name + "'");
}

net::Topology build_topology(TopologyKind kind) {
  return kind == TopologyKind::kWaxman
             ? net::topologies::waxman(kWaxmanRouters, kWaxmanAlpha, kWaxmanBeta, kWaxmanGraphSeed)
             : net::topologies::mci_backbone();
}

Prepared prepare(const SimCase& c,
                 const std::function<void(sim::SimulationConfig&)>& attach) {
  Prepared prepared;
  if (c.scenario) {
    prepared.scenario = sim::load_scenario(c.scenario_text);
    prepared.run = sim::make_scenario_run(*prepared.scenario);
    if (attach) {
      attach(prepared.run->config);
    }
    prepared.simulation =
        std::make_unique<sim::Simulation>(prepared.run->topology, prepared.run->config);
    return prepared;
  }
  prepared.topology = std::make_unique<net::Topology>(build_topology(c.topology));
  sim::SimulationConfig config = c.config;
  if (attach) {
    attach(config);
  }
  prepared.simulation = std::make_unique<sim::Simulation>(*prepared.topology, std::move(config));
  return prepared;
}

}  // namespace perfbench
