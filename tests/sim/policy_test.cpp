// Every admission policy inside sim::Simulation: drained runs under link
// faults end clean, and the DAC-only planes are rejected.
#include <gtest/gtest.h>

#include <map>
#include <stdexcept>
#include <string>
#include <vector>

#include "src/audit/auditor.h"
#include "src/control/governor.h"
#include "src/sim/churn.h"
#include "src/sim/experiment.h"
#include "src/sim/faults.h"

namespace anyqos::sim {
namespace {

struct PolicyCase {
  std::string label;
  bool gdi = false;
  PolicyFactory policy;
};

std::vector<PolicyCase> policy_cases() {
  // A 100 ms deadline needs 125 kbit/s even over one hop: every delay-bounded
  // flow reserves a member-specific rate above the 64 kbit/s floor.
  core::SchedulerModel wfq;
  wfq.per_hop_latency_s = 0.004;
  return {{"GDI", true, nullptr},
          {"CTRL@8", false, centralized_policy(8, 1.0e6)},
          {"<DELAY,2>", false, delay_policy(wfq, 0.1, 2)},
          {"<MP3,4>", false, multipath_policy(3, 4)}};
}

SimulationConfig policy_config(const ExperimentModel& model, const PolicyCase& policy) {
  SimulationConfig config = model.base_config(30.0);
  config.warmup_s = 100.0;
  config.measure_s = 600.0;
  config.seed = 5;
  config.use_gdi = policy.gdi;
  config.policy = policy.policy;
  config.drain_to_quiescence = true;
  config.faults = {{12, 16, 250.0, 450.0}, {15, 16, 350.0, 600.0}};  // both links into 16
  return config;
}

TEST(PolicySimulation, EveryPolicyDrainsCleanUnderLinkFaults) {
  const ExperimentModel model = paper_model();
  for (const PolicyCase& policy : policy_cases()) {
    SimulationConfig config = policy_config(model, policy);
    MemoryTraceSink trace;
    config.trace = &trace;
    Simulation simulation(model.topology, config);
    audit::InvariantAuditor auditor;  // throwing mode: a violation aborts the run
    auditor.attach(simulation);
    const SimulationResult result = simulation.run();
    EXPECT_EQ(result.system_label, policy.label);
    EXPECT_GT(result.dropped_by_fault, 0u) << policy.label;
    EXPECT_NEAR(simulation.ledger().total_reserved(), 0.0, 1e-6) << policy.label;
    EXPECT_EQ(simulation.active_flows(), 0u) << policy.label;
    EXPECT_TRUE(auditor.log().empty()) << policy.label << "\n" << auditor.log().to_text();

    // Each flow's departure or drop row carries what its admission reserved;
    // only the delay policy reserves above the request's floor.
    std::map<std::uint64_t, double> reserved;
    bool above_floor = false;
    for (const TraceEvent& event : trace.events()) {
      if (event.kind == TraceEventKind::kAdmitted) {
        reserved.emplace(event.flow, event.bandwidth_bps);
        above_floor = above_floor || event.bandwidth_bps > model.flow_bandwidth_bps;
      } else if (event.kind == TraceEventKind::kDeparted ||
                 event.kind == TraceEventKind::kDropped) {
        ASSERT_EQ(reserved.count(event.flow), 1u) << policy.label << ": flow " << event.flow;
        EXPECT_EQ(event.bandwidth_bps, reserved[event.flow]) << policy.label;
        reserved.erase(event.flow);
      }
    }
    EXPECT_TRUE(reserved.empty()) << policy.label << ": flows never released";
    EXPECT_EQ(above_floor, policy.label == "<DELAY,2>") << policy.label;
  }
}

void expect_rejected(const net::Topology& topology, const SimulationConfig& config,
                     const std::string& plane) {
  try {
    (void)Simulation(topology, config);
    ADD_FAILURE() << "accepted a policy run with " << plane;
  } catch (const std::invalid_argument& error) {
    EXPECT_NE(std::string(error.what()).find(plane), std::string::npos) << error.what();
  }
}

TEST(PolicySimulation, RejectsGdiWithAPolicyAndTheDacOnlyPlanes) {
  const ExperimentModel model = paper_model();
  SimulationConfig config = policy_config(model, policy_cases()[1]);
  config.use_gdi = true;
  expect_rejected(model.topology, config, "use_gdi");
  for (const PolicyCase& policy : policy_cases()) {
    const SimulationConfig base = policy_config(model, policy);
    config = base;
    config.churn.push_back(single_churn(0, 300.0, 400.0));
    expect_rejected(model.topology, config, "churn");
    config = base;
    config.governor = control::GovernorOptions{};
    expect_rejected(model.topology, config, "governor");
    config = base;
    config.resilience = signaling::ResilienceOptions{};
    expect_rejected(model.topology, config, "resilient");
    config = base;
    config.node_faults.push_back(single_node_fault(2, 300.0, 400.0));
    expect_rejected(model.topology, config, "node faults");
    config = base;
    config.reconvergence_delay_s = 0.0;
    expect_rejected(model.topology, config, "reconvergence");
    config = base;
    config.extra_groups.push_back(GroupSpec{"extra", {2, 6}, 5.0});
    expect_rejected(model.topology, config, "extra groups");
  }
}

}  // namespace
}  // namespace anyqos::sim
