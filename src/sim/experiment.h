// The paper's experimental model (Section 5.1) and run-control helpers
// shared by all benchmark binaries and integration tests.
#pragma once

#include <cstdint>
#include <vector>

#include "src/core/qos.h"
#include "src/net/topologies.h"
#include "src/sim/simulation.h"

namespace anyqos::sim {

/// The evaluation setup of Section 5.1, bundled so every bench/test uses
/// identical parameters: MCI-like backbone, 100 Mbit/s links with 20% for
/// anycast, sources at odd routers, group members at routers 0/4/8/12/16,
/// 64 kbit/s flows with mean lifetime 180 s.
struct ExperimentModel {
  net::Topology topology;
  std::vector<net::NodeId> sources;
  std::vector<net::NodeId> group_members;
  net::Bandwidth flow_bandwidth_bps = 64'000.0;
  double mean_holding_s = 180.0;
  double anycast_share = 0.2;

  /// A SimulationConfig preset with this model's workload at rate `lambda`
  /// (total requests/s) and the given run-control defaults.
  [[nodiscard]] SimulationConfig base_config(double lambda) const;
};

/// Builds the Section 5.1 model on the MCI-like backbone.
ExperimentModel paper_model();

/// Applies run-length overrides commonly exposed as bench flags.
struct RunControls {
  double warmup_s = 2'000.0;
  double measure_s = 20'000.0;
  std::uint64_t seed = 1;
};
void apply_run_controls(SimulationConfig& config, const RunControls& controls);

// SimulationConfig::policy factories for the library's admission policies.

/// The central agency (Section 1) at `controller_node`, deciding at most
/// `decisions_per_second` requests per second ("CTRL@<node>").
PolicyFactory centralized_policy(net::NodeId controller_node, double decisions_per_second);

/// Delay-bounded DAC (Section 6): every flow must meet `max_delay_s` end to
/// end under `scheduler`, trying at most `max_tries` members.
PolicyFactory delay_policy(core::SchedulerModel scheduler, double max_delay_s,
                           std::size_t max_tries);

/// Multipath DAC over `paths_per_member` fixed paths per member, trying at
/// most `max_tries` (member, path) alternatives.
PolicyFactory multipath_policy(std::size_t paths_per_member, std::size_t max_tries);

}  // namespace anyqos::sim
