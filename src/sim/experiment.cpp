#include "src/sim/experiment.h"

#include "src/core/centralized.h"
#include "src/core/delay_admission.h"
#include "src/core/multipath_admission.h"
#include "src/util/require.h"

namespace anyqos::sim {

SimulationConfig ExperimentModel::base_config(double lambda) const {
  util::require(lambda > 0.0, "arrival rate must be positive");
  SimulationConfig config;
  config.traffic.arrival_rate = lambda;
  config.traffic.mean_holding_s = mean_holding_s;
  config.traffic.flow_bandwidth_bps = flow_bandwidth_bps;
  config.traffic.sources = sources;
  config.group_members = group_members;
  config.anycast_share = anycast_share;
  return config;
}

ExperimentModel paper_model() {
  ExperimentModel model;
  model.topology = net::topologies::mci_backbone();
  // "Sources of anycast flows are chosen randomly among those hosts that
  // attach the routers with the odd identification numbers."
  for (net::NodeId id = 1; id < model.topology.router_count(); id += 2) {
    model.sources.push_back(id);
  }
  // "There is an anycast group that consists of 5 members ... hosts which
  // attach to router 0, 4, 8, 12, and 16."
  model.group_members = {0, 4, 8, 12, 16};
  return model;
}

void apply_run_controls(SimulationConfig& config, const RunControls& controls) {
  util::require(controls.measure_s > 0.0, "measurement window must be positive");
  config.warmup_s = controls.warmup_s;
  config.measure_s = controls.measure_s;
  config.seed = controls.seed;
}

PolicyFactory centralized_policy(net::NodeId controller_node, double decisions_per_second) {
  return [controller_node, decisions_per_second](const PolicyEnvironment& env) {
    return std::make_unique<core::CentralizedController>(env.topology, env.ledger, env.group,
                                                         env.routes, env.rsvp, controller_node,
                                                         decisions_per_second);
  };
}

PolicyFactory delay_policy(core::SchedulerModel scheduler, double max_delay_s,
                           std::size_t max_tries) {
  return [scheduler, max_delay_s, max_tries](const PolicyEnvironment& env) {
    return std::make_unique<core::DelayAdmissionController>(env.group, env.routes, env.rsvp,
                                                            scheduler, max_delay_s, max_tries);
  };
}

PolicyFactory multipath_policy(std::size_t paths_per_member, std::size_t max_tries) {
  return [paths_per_member, max_tries](const PolicyEnvironment& env) {
    return std::make_unique<core::MultiPathAdmissionController>(
        env.topology, env.group, paths_per_member, env.rsvp, max_tries);
  };
}

}  // namespace anyqos::sim
