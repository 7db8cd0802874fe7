// Failure-domain plane acceptance: a crash/recovery storm over the paper's
// backbone — router crashes on top of message loss, member churn, and link
// faults, with live reconvergence and path repair — drains to quiescence
// under a throwing InvariantAuditor with zero leaked bandwidth, an empty
// repair queue, and no breaker stuck Open. Same-seed reruns are
// byte-identical, and a run without the plane carries no residue of it.
#include <gtest/gtest.h>

#include <sstream>
#include <string>

#include "src/audit/auditor.h"
#include "src/control/governor.h"
#include "src/net/reconvergence.h"
#include "src/net/topologies.h"
#include "src/obs/timeline.h"
#include "src/sim/churn.h"
#include "src/sim/faults.h"
#include "src/sim/simulation.h"
#include "src/sim/trace.h"

namespace anyqos::sim {
namespace {

SimulationConfig storm_config(const net::Topology& topo) {
  SimulationConfig config;
  config.traffic.arrival_rate = 5.0;
  config.traffic.mean_holding_s = 30.0;
  config.traffic.flow_bandwidth_bps = 64'000.0;
  config.traffic.sources = {1, 5, 9, 13, 17};
  config.group_members = {0, 4, 9, 14, 18};
  config.algorithm = core::SelectionAlgorithm::kEvenDistribution;  // probe-free
  config.max_tries = 2;
  config.warmup_s = 0.0;
  config.measure_s = 600.0;
  config.seed = 31;
  config.drain_to_quiescence = true;
  // Aggressive per-router MTBF (~600 s) with quick recovery: several
  // concurrent outages over the run, including crashes of source and member
  // routers.
  config.node_faults =
      random_node_fault_schedule(topo, config.measure_s, 1.0 / 600.0, 60.0, 77);
  return config;
}

TEST(FailureDomain, CrashRecoveryStormDrainsCleanUnderAudit) {
  const net::Topology topo = net::topologies::mci_backbone();
  SimulationConfig config = storm_config(topo);
  ASSERT_GT(config.node_faults.size(), 3u) << "storm must actually storm";
  // Layer the rest of the chaos stack on top.
  signaling::ResilienceOptions resilience;
  resilience.faults.loss_probability = 0.05;
  resilience.retransmit_timeout_s = 0.5;
  resilience.max_retransmits = 2;
  resilience.orphan_hold_s = 20.0;
  config.resilience = resilience;
  config.churn.push_back(single_churn(1, 250.0, 350.0));
  config.faults.push_back(single_fault(0, 1, 300.0, 450.0));
  config.reconvergence_delay_s = net::flooding_delay_s(topo, 0.5);
  config.path_repair = true;
  config.governor = control::GovernorOptions{};

  Simulation sim(topo, config);
  audit::AuditorOptions audit_options;
  audit_options.checkpoint_interval_s = 50.0;
  audit::InvariantAuditor auditor(audit_options);  // throwing mode
  auditor.attach(sim);
  const SimulationResult result = sim.run();

  // The storm actually exercised the plane.
  EXPECT_GT(result.node_outages, 0u);
  EXPECT_GT(result.reconvergences, 0u);
  EXPECT_GT(result.repaired + result.unrepairable, 0u);

  // Quiescence: nothing live, nothing leaked, nothing queued, clean audit.
  EXPECT_EQ(sim.active_flows(), 0u);
  EXPECT_DOUBLE_EQ(sim.ledger().total_reserved(), 0.0);
  EXPECT_EQ(sim.pending_repairs(), 0u);
  ASSERT_NE(sim.resilient(), nullptr);
  EXPECT_EQ(sim.resilient()->pending_orphans(), 0u);
  EXPECT_TRUE(auditor.log().empty()) << auditor.log().to_text();
  EXPECT_EQ(auditor.open_reservations(), 0u);

  // Breakers tripped for members behind dead routers, and none is stuck
  // Open after the drain (recovered routers pass their half-open probes or
  // sit harmlessly HalfOpen/Closed with no traffic).
  EXPECT_GT(sim.governor()->stats().breaker_trips, 0u);
  EXPECT_EQ(sim.governor()->open_breakers(), 0u);
}

TEST(FailureDomain, SameSeedStormRunsAreByteIdentical) {
  const net::Topology topo = net::topologies::mci_backbone();
  auto run_once = [&topo](std::string& timeline_out, std::string& trace_out,
                          SimulationResult& result) {
    SimulationConfig config = storm_config(topo);
    config.reconvergence_delay_s = 1.0;
    config.path_repair = true;
    obs::TimelineOptions timeline_options;
    timeline_options.interval_s = 50.0;
    obs::Timeline timeline(timeline_options);
    config.timeline = &timeline;
    std::ostringstream trace_csv;
    CsvTraceSink trace(trace_csv);
    config.trace = &trace;
    Simulation sim(topo, config);
    result = sim.run();
    std::ostringstream timeline_jsonl;
    timeline.write_jsonl(timeline_jsonl);
    timeline_out = timeline_jsonl.str();
    trace_out = trace_csv.str();
  };
  std::string timeline_a;
  std::string timeline_b;
  std::string trace_a;
  std::string trace_b;
  SimulationResult result_a;
  SimulationResult result_b;
  run_once(timeline_a, trace_a, result_a);
  run_once(timeline_b, trace_b, result_b);
  EXPECT_EQ(timeline_a, timeline_b);
  EXPECT_EQ(trace_a, trace_b);
  EXPECT_EQ(result_a.admitted, result_b.admitted);
  EXPECT_EQ(result_a.repaired, result_b.repaired);
  EXPECT_EQ(result_a.unrepairable, result_b.unrepairable);
  EXPECT_EQ(result_a.messages.total(), result_b.messages.total());
  // The new timeline columns are present on an attached run.
  EXPECT_NE(timeline_a.find("routes_stale"), std::string::npos);
  EXPECT_NE(timeline_a.find("nodes_down"), std::string::npos);
  EXPECT_NE(timeline_a.find("repairs_per_s"), std::string::npos);
}

TEST(FailureDomain, UnattachedRunsCarryNoFailureDomainResidue) {
  // Zero-perturbation contract: without node faults / reconvergence / path
  // repair the result carries zeros, the timeline omits the new columns,
  // and attaching an idle plane (policy set, no topology change ever) does
  // not perturb a single admission decision.
  const net::Topology topo = net::topologies::mci_backbone();
  auto base = [&topo] {
    SimulationConfig config;
    config.traffic.arrival_rate = 5.0;
    config.traffic.mean_holding_s = 30.0;
    config.traffic.flow_bandwidth_bps = 64'000.0;
    config.traffic.sources = {1, 5, 9};
    config.group_members = {0, 14};
    config.warmup_s = 100.0;
    config.measure_s = 400.0;
    config.seed = 13;
    return config;
  };

  SimulationConfig unattached = base();
  obs::Timeline timeline;
  unattached.timeline = &timeline;
  Simulation plain(topo, unattached);
  const SimulationResult plain_result = plain.run();
  EXPECT_EQ(plain_result.repaired, 0u);
  EXPECT_EQ(plain_result.unrepairable, 0u);
  EXPECT_EQ(plain_result.reconvergences, 0u);
  EXPECT_EQ(plain_result.node_outages, 0u);
  EXPECT_EQ(plain.pending_repairs(), 0u);
  EXPECT_FALSE(plain.routes_stale());
  std::ostringstream jsonl;
  timeline.write_jsonl(jsonl);
  EXPECT_EQ(jsonl.str().find("routes_stale"), std::string::npos);
  EXPECT_EQ(jsonl.str().find("nodes_down"), std::string::npos);
  EXPECT_EQ(jsonl.str().find("repairs_per_s"), std::string::npos);

  SimulationConfig idle = base();
  idle.reconvergence_delay_s = 0.0;
  idle.path_repair = true;  // armed but never triggered: no faults scheduled
  Simulation armed(topo, idle);
  const SimulationResult armed_result = armed.run();
  EXPECT_EQ(armed_result.admitted, plain_result.admitted);
  EXPECT_EQ(armed_result.offered, plain_result.offered);
  EXPECT_EQ(armed_result.messages.total(), plain_result.messages.total());
  EXPECT_DOUBLE_EQ(armed_result.admission_probability, plain_result.admission_probability);
  EXPECT_EQ(armed_result.reconvergences, 0u);
}

}  // namespace
}  // namespace anyqos::sim
