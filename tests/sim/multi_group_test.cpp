// Several anycast groups in one Simulation (SimulationConfig::extra_groups):
// groups share the ledger and interact only through link bandwidth, each
// with its own Poisson stream, members and <A, R> tuple.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstddef>
#include <iterator>
#include <sstream>
#include <stdexcept>
#include <string>
#include <vector>

#include "src/audit/auditor.h"
#include "src/control/governor.h"
#include "src/net/topologies.h"
#include "src/obs/flight_recorder.h"
#include "src/obs/timeline.h"
#include "src/sim/churn.h"
#include "src/sim/experiment.h"
#include "src/sim/faults.h"
#include "src/sim/simulation.h"

namespace anyqos::sim {
namespace {

/// MCI run whose primary group is `members` at `lambda` requests/s.
SimulationConfig base_config(std::vector<net::NodeId> members, double lambda) {
  SimulationConfig config;
  config.traffic.arrival_rate = lambda;
  config.traffic.mean_holding_s = 60.0;
  config.traffic.sources = {1, 3, 5, 7, 9};
  config.group_members = std::move(members);
  config.anycast_share = 0.2;
  config.warmup_s = 200.0;
  config.measure_s = 1'000.0;
  config.seed = 17;
  return config;
}

GroupSpec group(std::string address, std::vector<net::NodeId> members, double rate) {
  GroupSpec spec;
  spec.address = std::move(address);
  spec.members = std::move(members);
  spec.arrival_rate = rate;
  return spec;
}

TEST(MultiGroup, SingleGroupBehavesLikeBasicSimulation) {
  const net::Topology topo = net::topologies::mci_backbone();
  Simulation sim(topo, base_config({0, 4, 8, 12, 16}, 10.0));
  const SimulationResult result = sim.run();
  ASSERT_EQ(result.groups.size(), 1u);
  EXPECT_EQ(result.groups[0].address, "anycast://sim");
  EXPECT_GT(result.groups[0].offered, 1'000u);
  EXPECT_GT(result.groups[0].admission_probability, 0.99);  // light load
  // The primary's row restates the top-level tallies.
  EXPECT_EQ(result.groups[0].offered, result.offered);
  EXPECT_EQ(result.groups[0].admitted, result.admitted);
  EXPECT_DOUBLE_EQ(result.groups[0].admission_probability, result.admission_probability);
  EXPECT_DOUBLE_EQ(result.groups[0].average_attempts, result.average_attempts);
}

TEST(MultiGroup, SharesSplitTraffic) {
  const net::Topology topo = net::topologies::mci_backbone();
  SimulationConfig config = base_config({0, 4, 8}, 15.0);
  config.extra_groups.push_back(group("small", {12, 16}, 5.0));
  Simulation sim(topo, config);
  const SimulationResult result = sim.run();
  ASSERT_EQ(result.groups.size(), 2u);
  EXPECT_EQ(result.groups[1].address, "small");
  const double ratio = static_cast<double>(result.groups[0].offered) /
                       static_cast<double>(result.groups[1].offered);
  EXPECT_NEAR(ratio, 3.0, 0.3);
}

TEST(MultiGroup, GroupsContendForSharedLinks) {
  // A group alone admits more than the same group sharing the network with a
  // second heavy group. The primary sees the same arrival stream both times.
  const net::Topology topo = net::topologies::mci_backbone();
  Simulation sim_alone(topo, base_config({0, 4, 8, 12, 16}, 40.0));
  const SimulationResult alone = sim_alone.run();

  SimulationConfig shared = base_config({0, 4, 8, 12, 16}, 40.0);
  shared.extra_groups.push_back(group("rival", {2, 10, 18}, 40.0));
  Simulation sim_shared(topo, shared);
  const SimulationResult result = sim_shared.run();
  EXPECT_EQ(result.groups[0].offered, alone.groups[0].offered);
  EXPECT_LT(result.groups[0].admission_probability,
            alone.groups[0].admission_probability - 0.02);
}

TEST(MultiGroup, PerGroupAlgorithmsApply) {
  const net::Topology topo = net::topologies::mci_backbone();
  SimulationConfig config = base_config({0, 4, 8, 12, 16}, 30.0);
  config.algorithm = core::SelectionAlgorithm::kEvenDistribution;
  GroupSpec wdb = group("wdb", {0, 4, 8, 12, 16}, 30.0);
  wdb.algorithm = core::SelectionAlgorithm::kDistanceBandwidth;
  config.extra_groups.push_back(wdb);
  Simulation sim(topo, config);
  const SimulationResult result = sim.run();
  // Identical members/demand: the informed selector needs fewer tries.
  EXPECT_LT(result.groups[1].average_attempts, result.groups[0].average_attempts + 1e-9);
}

TEST(MultiGroup, HeterogeneousBandwidths) {
  const net::Topology topo = net::topologies::mci_backbone();
  SimulationConfig config = base_config({0, 8, 16}, 15.0);
  GroupSpec fat = group("fat", {4, 12}, 15.0);
  fat.flow_bandwidth_bps = 1'000'000.0;  // 1 Mbit flows block much earlier
  config.extra_groups.push_back(fat);
  Simulation sim(topo, config);
  const SimulationResult result = sim.run();
  EXPECT_LT(result.groups[1].admission_probability, result.groups[0].admission_probability);
  EXPECT_GT(result.mean_link_utilization, 0.0);
}

TEST(MultiGroup, AggregateIsOfferWeighted) {
  // The group rows partition the run's measured requests, so the aggregate
  // acceptance is their offer-weighted mean.
  const net::Topology topo = net::topologies::mci_backbone();
  SimulationConfig config = base_config({0, 4, 8, 12, 16}, 15.0);
  config.extra_groups.push_back(group("b", {2, 10, 18}, 15.0));
  MemoryTraceSink trace;
  config.trace = &trace;
  Simulation sim(topo, config);
  const SimulationResult result = sim.run();
  std::uint64_t decided = 0;
  std::uint64_t admitted = 0;
  for (const TraceEvent& event : trace.events()) {
    if (event.time <= config.warmup_s) {
      continue;
    }
    if (event.kind == TraceEventKind::kAdmitted) {
      ++decided;
      ++admitted;
    } else if (event.kind == TraceEventKind::kRejected) {
      ++decided;
    }
  }
  const GroupResult& a = result.groups[0];
  const GroupResult& b = result.groups[1];
  EXPECT_EQ(a.offered + b.offered, decided);
  EXPECT_EQ(a.admitted + b.admitted, admitted);
  const double aggregate =
      static_cast<double>(admitted) / static_cast<double>(decided);
  EXPECT_GE(aggregate, std::min(a.admission_probability, b.admission_probability));
  EXPECT_LE(aggregate, std::max(a.admission_probability, b.admission_probability));
}

/// Expects the constructor to reject `config` with a message naming `what`.
void expect_rejected(const net::Topology& topo, const SimulationConfig& config,
                     const std::string& what) {
  try {
    Simulation sim(topo, config);
    ADD_FAILURE() << "accepted a config that should fail on: " << what;
  } catch (const std::invalid_argument& error) {
    EXPECT_NE(std::string(error.what()).find(what), std::string::npos) << error.what();
  }
}

TEST(MultiGroup, Validation) {
  const net::Topology topo = net::topologies::mci_backbone();
  const SimulationConfig base = [] {
    SimulationConfig config = base_config({0, 4, 8}, 10.0);
    config.extra_groups.push_back(group("svc", {12, 16}, 5.0));
    return config;
  }();

  // Each bad GroupSpec field.
  SimulationConfig config = base;
  config.extra_groups[0].members.clear();
  expect_rejected(topo, config, "non-empty anycast group");
  config = base;
  config.extra_groups[0].members = {99};
  expect_rejected(topo, config, "member out of range");
  config = base;
  config.extra_groups[0].arrival_rate = 0.0;
  expect_rejected(topo, config, "arrival rate");
  config = base;
  config.extra_groups[0].flow_bandwidth_bps = 0.0;
  expect_rejected(topo, config, "flow bandwidth");
  config = base;
  config.extra_groups[0].max_tries = 0;
  expect_rejected(topo, config, "retrial bound");
  config = base;
  config.extra_groups[0].alpha = 1.5;
  expect_rejected(topo, config, "alpha");

  // Each plane that indexes the members of one group.
  config = base;
  config.use_gdi = true;
  expect_rejected(topo, config, "one group");
  config = base;
  config.policy = centralized_policy(0, 1.0e6);
  expect_rejected(topo, config, "one group");
  config = base;
  config.churn.push_back(single_churn(0, 300.0, 400.0));
  expect_rejected(topo, config, "member churn");
  config = base;
  config.governor = control::GovernorOptions{};
  expect_rejected(topo, config, "governor");
  config = base;
  config.node_faults.push_back(single_node_fault(2, 300.0, 400.0));
  expect_rejected(topo, config, "node faults");
  config = base;
  config.reconvergence_delay_s = 0.0;
  expect_rejected(topo, config, "reconvergence");
  config.path_repair = true;  // path repair requires reconvergence
  expect_rejected(topo, config, "reconvergence");

  // The same planes run a single group.
  config = base;
  config.extra_groups.clear();
  config.churn.push_back(single_churn(0, 300.0, 400.0));
  EXPECT_NO_THROW(Simulation(topo, config));
}

/// The trace as its CSV artifact, for byte comparison.
std::string as_csv(const MemoryTraceSink& trace) {
  std::ostringstream out;
  CsvTraceSink csv(out);
  for (const TraceEvent& event : trace.events()) {
    csv.record(event);
  }
  return out.str();
}

TEST(MultiGroup, PlanesCoverEveryGroup) {
  // Three groups under trace, timeline, flight recorder, a throwing auditor,
  // link faults, lossy resilient signaling and a drain. Each group has its
  // own flow size, so the trace tells which group a flow belongs to.
  const net::Topology topo = net::topologies::mci_backbone();
  struct Service {
    net::Bandwidth flow_bps;
    std::vector<net::NodeId> members;
  };
  const Service services[] = {{64'000.0, {0, 4, 8, 12, 16}}, {128'000.0, {2, 14}},
                              {256'000.0, {18}}};
  const auto run = [&](MemoryTraceSink& trace) {
    SimulationConfig config = base_config(services[0].members, 12.0);
    config.measure_s = 800.0;
    GroupSpec db = group("anycast://db", services[1].members, 4.0);
    db.flow_bandwidth_bps = services[1].flow_bps;
    db.algorithm = core::SelectionAlgorithm::kDistanceBandwidth;
    GroupSpec legacy = group("anycast://legacy", services[2].members, 4.0);
    legacy.flow_bandwidth_bps = services[2].flow_bps;
    legacy.algorithm = core::SelectionAlgorithm::kShortestPath;
    legacy.max_tries = 1;
    config.extra_groups = {db, legacy};
    for (const net::LinkId id : {net::LinkId{0}, net::LinkId{10}}) {
      const net::Arc& arc = topo.link(id);
      config.faults.push_back(single_fault(arc.from, arc.to, 400.0, 550.0));
    }
    signaling::ResilienceOptions resilience;
    resilience.faults.loss_probability = 0.05;
    resilience.retransmit_timeout_s = 0.5;
    resilience.max_retransmits = 2;
    resilience.orphan_hold_s = 20.0;
    config.resilience = resilience;
    config.drain_to_quiescence = true;
    config.trace = &trace;
    obs::Timeline timeline;
    config.timeline = &timeline;
    std::ostringstream dumps;
    obs::FlightRecorder recorder;
    recorder.set_output(&dumps);
    config.flight_recorder = &recorder;

    Simulation sim(topo, config);
    audit::AuditorOptions audit_options;
    audit_options.throw_on_violation = true;
    audit_options.checkpoint_interval_s = 50.0;
    audit::InvariantAuditor auditor(audit_options);
    auditor.attach(sim);
    const SimulationResult result = sim.run();

    EXPECT_EQ(sim.active_flows(), 0u);
    EXPECT_DOUBLE_EQ(sim.ledger().total_reserved(), 0.0);
    EXPECT_TRUE(auditor.log().empty()) << auditor.log().to_text();
    EXPECT_GT(result.resilience.retransmits, 0u);
    EXPECT_FALSE(timeline.samples().empty());
    EXPECT_FALSE(dumps.str().empty());
    ASSERT_EQ(result.groups.size(), 3u);
    for (const GroupResult& row : result.groups) {
      EXPECT_GT(row.admitted, 0u) << row.address;
    }
  };

  MemoryTraceSink trace;
  run(trace);
  std::size_t flow_events = 0;
  for (const TraceEvent& event : trace.events()) {
    if (event.kind != TraceEventKind::kAdmitted && event.kind != TraceEventKind::kDeparted &&
        event.kind != TraceEventKind::kDropped) {
      continue;
    }
    const Service* own = std::find_if(std::begin(services), std::end(services),
                                      [&event](const Service& service) {
                                        return service.flow_bps == event.bandwidth_bps;
                                      });
    ASSERT_NE(own, std::end(services)) << event.bandwidth_bps;
    EXPECT_NE(std::find(own->members.begin(), own->members.end(), event.destination),
              own->members.end())
        << "flow " << event.flow << " of " << event.bandwidth_bps << " bps ended at router "
        << event.destination;
    ++flow_events;
  }
  EXPECT_GT(flow_events, 0u);

  MemoryTraceSink again;
  run(again);
  EXPECT_TRUE(as_csv(trace) == as_csv(again));  // no multi-megabyte diff on failure
}

}  // namespace
}  // namespace anyqos::sim
