// Drain watchdog: caps on the drain-to-quiescence tail so a drain that never
// empties (a bug once arrivals stop) surfaces as a diagnosable trip report
// instead of a hung process, while capped drains that complete stay
// byte-identical to unbounded ones.
#include <gtest/gtest.h>

#include "src/net/topologies.h"
#include "src/sim/simulation.h"

namespace anyqos::sim {
namespace {

/// Tiny overloaded cell whose flows outlive the window by orders of
/// magnitude: at the end of measurement ~every admitted flow still holds
/// bandwidth, so an uncapped drain would run another ~10^4 simulated
/// seconds before quiescing.
SimulationConfig sticky_config() {
  SimulationConfig config;
  config.traffic.arrival_rate = 2.0;
  config.traffic.mean_holding_s = 10'000.0;
  config.traffic.flow_bandwidth_bps = 64'000.0;
  config.traffic.sources = {2};
  config.group_members = {0};
  config.warmup_s = 0.0;
  config.measure_s = 50.0;
  config.seed = 11;
  config.drain_to_quiescence = true;
  return config;
}

TEST(DrainWatchdog, SimTimeCapTripsWithDiagnostics) {
  const net::Topology topo = net::topologies::ring(5);
  SimulationConfig config = sticky_config();
  config.drain_max_sim_s = 20.0;
  Simulation sim(topo, config);
  (void)sim.run();
  const DrainWatchdogReport& report = sim.drain_watchdog();
  ASSERT_TRUE(report.tripped);
  EXPECT_EQ(report.reason, "sim-time cap reached");
  EXPECT_GT(report.pending_events, 0U);
  EXPECT_GT(report.active_flows, 0U);
  // The drain stops exactly drain_max_sim_s past the measurement window.
  EXPECT_DOUBLE_EQ(report.sim_time_s, 70.0);
}

TEST(DrainWatchdog, EventBudgetTrips) {
  const net::Topology topo = net::topologies::ring(5);
  SimulationConfig config = sticky_config();
  config.drain_max_events = 1;
  Simulation sim(topo, config);
  (void)sim.run();
  const DrainWatchdogReport& report = sim.drain_watchdog();
  ASSERT_TRUE(report.tripped);
  EXPECT_EQ(report.reason, "event budget exhausted");
  EXPECT_EQ(report.drained_events, 1U);
  EXPECT_GT(report.pending_events, 0U);
}

TEST(DrainWatchdog, GenerousCapsNeverTripAndMatchUnbounded) {
  const net::Topology topo = net::topologies::ring(5);
  SimulationConfig capped_config = sticky_config();
  capped_config.drain_max_events = 10'000'000;
  capped_config.drain_max_sim_s = 1.0e6;
  Simulation capped(topo, capped_config);
  const SimulationResult capped_result = capped.run();
  EXPECT_FALSE(capped.drain_watchdog().tripped);

  Simulation unbounded(topo, sticky_config());
  const SimulationResult unbounded_result = unbounded.run();
  EXPECT_EQ(capped_result.offered, unbounded_result.offered);
  EXPECT_EQ(capped_result.admitted, unbounded_result.admitted);
  EXPECT_EQ(capped_result.explicit_teardowns, unbounded_result.explicit_teardowns);
  EXPECT_DOUBLE_EQ(capped_result.admission_probability,
                   unbounded_result.admission_probability);
  // The drain's event count is reported capped or not, and both drains
  // dispatch the same events.
  EXPECT_GT(capped.drain_watchdog().drained_events, 0u);
  EXPECT_EQ(unbounded.drain_watchdog().drained_events, capped.drain_watchdog().drained_events);
}

TEST(DrainWatchdog, NoDrainMeansNoTrip) {
  const net::Topology topo = net::topologies::ring(5);
  SimulationConfig config = sticky_config();
  config.drain_to_quiescence = false;
  config.drain_max_events = 1;  // caps are inert without a drain
  config.drain_max_sim_s = 0.001;
  Simulation sim(topo, config);
  (void)sim.run();
  EXPECT_FALSE(sim.drain_watchdog().tripped);
}

}  // namespace
}  // namespace anyqos::sim
