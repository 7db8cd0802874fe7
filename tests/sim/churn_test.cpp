#include "src/sim/churn.h"

#include <gtest/gtest.h>

#include "src/net/topologies.h"
#include "src/sim/experiment.h"
#include "src/sim/simulation.h"

namespace anyqos::sim {
namespace {

TEST(SingleChurn, BuildsValidatedEvent) {
  const MemberChurnEvent event = single_churn(2, 10.0, 40.0);
  EXPECT_EQ(event.member_index, 2u);
  EXPECT_DOUBLE_EQ(event.down_at, 10.0);
  EXPECT_DOUBLE_EQ(event.up_at, 40.0);
  EXPECT_THROW(single_churn(0, 40.0, 10.0), std::invalid_argument);
  EXPECT_THROW(single_churn(0, 10.0, 10.0), std::invalid_argument);
  EXPECT_THROW(single_churn(0, -1.0, 10.0), std::invalid_argument);
}

TEST(RandomChurnSchedule, DeterministicAndOrdered) {
  const auto a = random_churn_schedule(4, 10'000.0, 1e-3, 200.0, 17);
  const auto b = random_churn_schedule(4, 10'000.0, 1e-3, 200.0, 17);
  ASSERT_EQ(a.size(), b.size());
  EXPECT_FALSE(a.empty());
  for (std::size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a[i].member_index, b[i].member_index);
    EXPECT_DOUBLE_EQ(a[i].down_at, b[i].down_at);
    EXPECT_DOUBLE_EQ(a[i].up_at, b[i].up_at);
  }
  for (std::size_t i = 1; i < a.size(); ++i) {
    EXPECT_LE(a[i - 1].down_at, a[i].down_at);
  }
}

TEST(RandomChurnSchedule, PerMemberOutagesNeverOverlap) {
  const auto schedule = random_churn_schedule(3, 50'000.0, 5e-3, 500.0, 9);
  EXPECT_FALSE(schedule.empty());
  for (std::size_t i = 0; i < schedule.size(); ++i) {
    for (std::size_t j = i + 1; j < schedule.size(); ++j) {
      if (schedule[i].member_index != schedule[j].member_index) {
        continue;
      }
      const bool disjoint = schedule[j].down_at >= schedule[i].up_at ||
                            schedule[i].down_at >= schedule[j].up_at;
      EXPECT_TRUE(disjoint);
    }
  }
}

TEST(RandomChurnSchedule, EventsStayWithinBounds) {
  const double horizon = 10'000.0;
  const double mean_downtime = 300.0;
  for (std::uint64_t seed = 1; seed <= 20; ++seed) {
    for (const MemberChurnEvent& event : random_churn_schedule(5, horizon, 2e-3,
                                                               mean_downtime, seed)) {
      EXPECT_LT(event.member_index, 5u);
      EXPECT_GE(event.down_at, 0.0);
      EXPECT_LT(event.down_at, horizon);
      EXPECT_GT(event.up_at, event.down_at);
      EXPECT_LE(event.up_at, horizon + mean_downtime);
    }
  }
}

TEST(RandomChurnSchedule, ZeroRateOrHorizonYieldsEmptySchedule) {
  EXPECT_TRUE(random_churn_schedule(3, 0.0, 1e-3, 100.0, 1).empty());
  EXPECT_TRUE(random_churn_schedule(3, 100.0, 0.0, 100.0, 1).empty());
  EXPECT_TRUE(random_churn_schedule(3, 0.0, 0.0, 0.0, 1).empty());
}

TEST(RandomChurnSchedule, ValidatesParameters) {
  EXPECT_THROW(random_churn_schedule(0, 100.0, 1e-3, 100.0, 1), std::invalid_argument);
  EXPECT_THROW(random_churn_schedule(3, -1.0, 1e-3, 100.0, 1), std::invalid_argument);
  EXPECT_THROW(random_churn_schedule(3, 100.0, -1.0, 100.0, 1), std::invalid_argument);
  EXPECT_THROW(random_churn_schedule(3, 100.0, 1e-3, 0.0, 1), std::invalid_argument);
}

// --- End-to-end churn in the simulation -----------------------------------

SimulationConfig churn_config() {
  SimulationConfig config;
  config.traffic.arrival_rate = 5.0;
  config.traffic.mean_holding_s = 30.0;
  config.traffic.flow_bandwidth_bps = 64'000.0;
  config.traffic.sources = {1, 2, 5};
  config.group_members = {0, 3};
  config.warmup_s = 100.0;
  config.measure_s = 500.0;
  config.seed = 21;
  return config;
}

TEST(ChurnedSimulation, OutageDropsFlowsAndFailsThemOver) {
  const net::Topology topo = net::topologies::ring(6);
  SimulationConfig config = churn_config();
  config.churn.push_back(single_churn(0, 300.0, 400.0));
  MemoryTraceSink trace;
  config.trace = &trace;
  Simulation sim(topo, config);
  const SimulationResult result = sim.run();

  EXPECT_GT(result.dropped_by_churn, 0u);
  EXPECT_EQ(result.dropped, result.dropped_by_churn);  // no link faults here
  // Every displaced flow gets exactly one failover attempt, and with only
  // light load on the surviving member most are re-admitted.
  EXPECT_EQ(result.failover_attempts, result.dropped_by_churn);
  EXPECT_GT(result.failover_admitted, 0u);
  EXPECT_LE(result.failover_admitted, result.failover_attempts);

  bool saw_down = false;
  bool saw_up = false;
  bool saw_failover = false;
  for (const TraceEvent& event : trace.events()) {
    if (event.kind == TraceEventKind::kMemberDown) {
      saw_down = true;
      EXPECT_DOUBLE_EQ(event.time, 300.0);
    }
    if (event.kind == TraceEventKind::kMemberUp) {
      saw_up = true;
      EXPECT_DOUBLE_EQ(event.time, 400.0);
    }
    if (event.kind == TraceEventKind::kFailover) {
      saw_failover = true;
    }
  }
  EXPECT_TRUE(saw_down);
  EXPECT_TRUE(saw_up);
  EXPECT_TRUE(saw_failover);
}

TEST(ChurnedSimulation, DownMemberReceivesNoAdmissions) {
  // Member 0 is down for the whole measurement window: every admission in
  // the window must land on member 3 (group index 1).
  const net::Topology topo = net::topologies::ring(6);
  SimulationConfig config = churn_config();
  config.churn.push_back(single_churn(0, 90.0, 650.0));
  Simulation sim(topo, config);
  const SimulationResult result = sim.run();
  ASSERT_EQ(result.per_destination_admissions.size(), 2u);
  EXPECT_EQ(result.per_destination_admissions[0], 0u);
  EXPECT_GT(result.per_destination_admissions[1], 0u);
  EXPECT_GT(result.admission_probability, 0.9);  // one member suffices here
}

TEST(ChurnedSimulation, FailoverCanBeDisabled) {
  const net::Topology topo = net::topologies::ring(6);
  SimulationConfig config = churn_config();
  config.churn.push_back(single_churn(0, 300.0, 400.0));
  config.failover_readmit = false;
  Simulation sim(topo, config);
  const SimulationResult result = sim.run();
  EXPECT_GT(result.dropped_by_churn, 0u);
  EXPECT_EQ(result.failover_attempts, 0u);
  EXPECT_EQ(result.failover_admitted, 0u);
}

TEST(ChurnedSimulation, AllMembersDownRejectsWithoutAttempts) {
  // During the joint outage there is nobody to try: requests are rejected
  // with zero destination attempts, so AP drops but attempt counts stay sane.
  const net::Topology topo = net::topologies::ring(6);
  SimulationConfig config = churn_config();
  config.churn.push_back(single_churn(0, 200.0, 500.0));
  config.churn.push_back(single_churn(1, 200.0, 500.0));
  config.failover_readmit = false;
  Simulation sim(topo, config);
  const SimulationResult result = sim.run();
  EXPECT_LT(result.admission_probability, 0.9);
  EXPECT_GT(result.admission_probability, 0.0);
  EXPECT_GT(result.dropped_by_churn, 0u);
}

TEST(ChurnedSimulation, SameSeedIsFullyReproducible) {
  const net::Topology topo = net::topologies::ring(6);
  SimulationConfig config = churn_config();
  config.churn = random_churn_schedule(config.group_members.size(), 600.0, 2e-3, 100.0, 4);
  Simulation a(topo, config);
  Simulation b(topo, config);
  const SimulationResult ra = a.run();
  const SimulationResult rb = b.run();
  EXPECT_EQ(ra.offered, rb.offered);
  EXPECT_EQ(ra.admitted, rb.admitted);
  EXPECT_EQ(ra.dropped_by_churn, rb.dropped_by_churn);
  EXPECT_EQ(ra.failover_admitted, rb.failover_admitted);
  EXPECT_EQ(ra.messages.total(), rb.messages.total());
}

TEST(ChurnedSimulation, ChurnEventsAreValidatedAgainstTheGroup) {
  const net::Topology topo = net::topologies::ring(6);
  SimulationConfig config = churn_config();
  MemberChurnEvent bad;  // bypass single_churn on purpose: up_at <= down_at
  bad.member_index = 0;
  bad.down_at = 10.0;
  bad.up_at = 5.0;
  config.churn.push_back(bad);
  EXPECT_THROW(Simulation(topo, config), std::invalid_argument);

  config.churn.clear();
  config.churn.push_back(single_churn(2, 10.0, 20.0));  // only 2 members
  EXPECT_THROW(Simulation(topo, config), std::invalid_argument);
}

TEST(ChurnedSimulation, ChurnAndResilienceAreDacOnly) {
  const net::Topology topo = net::topologies::ring(6);
  SimulationConfig config = churn_config();
  config.churn.push_back(single_churn(0, 300.0, 400.0));
  config.use_gdi = true;
  EXPECT_THROW(Simulation(topo, config), std::invalid_argument);

  config = churn_config();
  config.resilience = signaling::ResilienceOptions{};
  config.policy = centralized_policy(0, 1.0e6);
  EXPECT_THROW(Simulation(topo, config), std::invalid_argument);
}

}  // namespace
}  // namespace anyqos::sim
