// Node crash/recovery fault domains: a router crash fails every incident
// link atomically, takes co-located group members down, interacts with
// overlapping link faults through hold counts, and (with a reconvergence
// delay + path repair) broken flows are re-signaled over the new routes.
#include <gtest/gtest.h>

#include <stdexcept>

#include "src/net/topologies.h"
#include "src/sim/faults.h"
#include "src/sim/simulation.h"
#include "src/sim/trace.h"

namespace anyqos::sim {
namespace {

SimulationConfig base_config() {
  SimulationConfig config;
  config.traffic.arrival_rate = 2.0;
  config.traffic.mean_holding_s = 20.0;
  config.traffic.flow_bandwidth_bps = 64'000.0;
  config.traffic.sources = {2};
  config.group_members = {0};
  config.warmup_s = 100.0;
  config.measure_s = 300.0;
  config.seed = 9;
  return config;
}

TEST(NodeFaults, CrashFailsEveryIncidentLinkAndRecoveryRestoresThem) {
  // Ring of 5: node 1 touches duplex links 0-1 and 1-2. Its crash must take
  // both out in the same event batch and its recovery must bring both back.
  const net::Topology topo = net::topologies::ring(5);
  SimulationConfig config = base_config();
  config.node_faults.push_back(single_node_fault(1, 150.0, 250.0));
  MemoryTraceSink trace;
  config.trace = &trace;
  Simulation sim(topo, config);
  const SimulationResult result = sim.run();
  EXPECT_EQ(result.node_outages, 1u);
  EXPECT_EQ(trace.count(TraceEventKind::kNodeDown), 1u);
  EXPECT_EQ(trace.count(TraceEventKind::kNodeUp), 1u);
  EXPECT_EQ(trace.count(TraceEventKind::kLinkDown), 2u);
  EXPECT_EQ(trace.count(TraceEventKind::kLinkUp), 2u);
  // Static routes (no reconvergence): route 2-1-0 is fixed, so flows
  // crossing the dead router are dropped and admissions fail until repair.
  EXPECT_GT(result.dropped_by_fault, 0u);
  EXPECT_LT(result.admission_probability, 1.0);
  // Both incident links are back in service at the end.
  EXPECT_GE(sim.ledger().available(*topo.find_link(0, 1)), 0.0);
  EXPECT_GE(sim.ledger().available(*topo.find_link(1, 2)), 0.0);
}

TEST(NodeFaults, ReconvergenceAndRepairRouteAroundTheCrash) {
  // Same crash, but with instant reconvergence and path repair:
  // broken flows re-signal over 2-3-4-0 and nothing is dropped; admissions
  // during the outage use the detour, so AP stays 1.
  const net::Topology topo = net::topologies::ring(5);
  SimulationConfig config = base_config();
  config.node_faults.push_back(single_node_fault(1, 150.0, 250.0));
  config.reconvergence_delay_s = 0.0;
  config.path_repair = true;
  MemoryTraceSink trace;
  config.trace = &trace;
  Simulation sim(topo, config);
  const SimulationResult result = sim.run();
  EXPECT_EQ(result.node_outages, 1u);
  EXPECT_EQ(result.reconvergences, 2u);  // crash batch + recovery batch
  EXPECT_GT(result.repaired, 0u);
  EXPECT_EQ(result.unrepairable, 0u);
  EXPECT_EQ(result.dropped_by_fault, 0u);
  EXPECT_DOUBLE_EQ(result.admission_probability, 1.0);
  EXPECT_EQ(trace.count(TraceEventKind::kReconverged), 2u);
  EXPECT_EQ(trace.count(TraceEventKind::kRepaired), result.repaired);
  EXPECT_EQ(trace.count(TraceEventKind::kRepairFailed), 0u);
  EXPECT_EQ(sim.pending_repairs(), 0u);
}

TEST(NodeFaults, CrashTakesColocatedMembersDownAndRecoveryRevivesThem) {
  // Members at 1 and 3; crashing router 1 must tear its member's flows down
  // (churn accounting) and fail requests over to member 3.
  const net::Topology topo = net::topologies::ring(5);
  SimulationConfig config = base_config();
  config.traffic.sources = {0};
  config.group_members = {1, 3};
  config.node_faults.push_back(single_node_fault(1, 150.0, 250.0));
  MemoryTraceSink trace;
  config.trace = &trace;
  Simulation sim(topo, config);
  const SimulationResult result = sim.run();
  EXPECT_EQ(trace.count(TraceEventKind::kMemberDown), 1u);
  EXPECT_EQ(trace.count(TraceEventKind::kMemberUp), 1u);
  EXPECT_GT(result.dropped_by_churn, 0u);
  EXPECT_GT(result.failover_attempts, 0u);
  // The surviving member keeps the group admitting throughout.
  EXPECT_DOUBLE_EQ(result.admission_probability, 1.0);
}

TEST(NodeFaults, OverlappingLinkFaultAndCrashReleaseTheLinkOnlyOnce) {
  // Link 1-2 fails 120-200 s; node 1 is down 150-250 s. The duplex is held
  // down by two owners: exactly one kLinkDown at 120 and one kLinkUp at 250
  // (when the LAST hold clears) — the ledger never double-fails.
  const net::Topology topo = net::topologies::ring(5);
  SimulationConfig config = base_config();
  config.faults.push_back(single_fault(1, 2, 120.0, 200.0));
  config.node_faults.push_back(single_node_fault(1, 150.0, 250.0));
  MemoryTraceSink trace;
  config.trace = &trace;
  Simulation sim(topo, config);
  (void)sim.run();
  std::size_t downs_1_2 = 0;
  std::size_t ups_1_2 = 0;
  double last_up_at = 0.0;
  for (const TraceEvent& event : trace.events()) {
    const bool on_1_2 = (event.source == 1 && event.destination == 2) ||
                        (event.source == 2 && event.destination == 1);
    if (event.kind == TraceEventKind::kLinkDown && on_1_2) {
      ++downs_1_2;
    } else if (event.kind == TraceEventKind::kLinkUp && on_1_2) {
      ++ups_1_2;
      last_up_at = event.time;
    }
  }
  EXPECT_EQ(downs_1_2, 1u);
  EXPECT_EQ(ups_1_2, 1u);
  EXPECT_DOUBLE_EQ(last_up_at, 250.0);
}

TEST(NodeFaults, MemberChurnCannotReviveAMemberWhoseRouterIsDown) {
  // Churn brings member 0 (router 1) back at 180 s, inside the router's
  // 150-250 s crash window: the revival must be suppressed; the member
  // returns only with the router.
  const net::Topology topo = net::topologies::ring(5);
  SimulationConfig config = base_config();
  config.traffic.sources = {3};
  config.group_members = {1, 4};
  MemberChurnEvent churn;
  churn.member_index = 0;
  churn.down_at = 110.0;
  churn.up_at = 180.0;
  config.churn.push_back(churn);
  config.node_faults.push_back(single_node_fault(1, 150.0, 250.0));
  MemoryTraceSink trace;
  config.trace = &trace;
  Simulation sim(topo, config);
  (void)sim.run();
  // Down at 110 (churn); the churn revival at 180 is swallowed, so the only
  // kMemberUp is the router recovery at 250.
  ASSERT_EQ(trace.count(TraceEventKind::kMemberDown), 1u);
  ASSERT_EQ(trace.count(TraceEventKind::kMemberUp), 1u);
  for (const TraceEvent& event : trace.events()) {
    if (event.kind == TraceEventKind::kMemberUp) {
      EXPECT_DOUBLE_EQ(event.time, 250.0);
    }
  }
}

TEST(NodeFaults, ConfigValidation) {
  const net::Topology topo = net::topologies::ring(5);
  // Crash/repair ordering and node range.
  EXPECT_THROW(single_node_fault(1, 20.0, 10.0), std::invalid_argument);
  EXPECT_THROW(single_node_fault(1, -1.0, 10.0), std::invalid_argument);
  {
    SimulationConfig config = base_config();
    config.node_faults.push_back(single_node_fault(99, 10.0, 20.0));
    EXPECT_THROW(Simulation(topo, config), std::invalid_argument);
  }
  {
    // Path repair requires a reconvergence delay (stale routes can never
    // heal, so the queue would starve).
    SimulationConfig config = base_config();
    config.path_repair = true;
    EXPECT_THROW(Simulation(topo, config), std::invalid_argument);
  }
  {
    // The failure-domain plane is DAC-only, like churn.
    SimulationConfig config = base_config();
    config.use_gdi = true;
    config.node_faults.push_back(single_node_fault(1, 10.0, 20.0));
    EXPECT_THROW(Simulation(topo, config), std::invalid_argument);
  }
}

}  // namespace
}  // namespace anyqos::sim
