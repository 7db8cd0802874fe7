#include "src/sim/simulation.h"

#include <gtest/gtest.h>

#include <cmath>

#include "src/net/topologies.h"

namespace anyqos::sim {
namespace {

// A small, fast model: 6-node ring, two members, three sources.
SimulationConfig small_config(double lambda) {
  SimulationConfig config;
  config.traffic.arrival_rate = lambda;
  config.traffic.mean_holding_s = 30.0;
  config.traffic.flow_bandwidth_bps = 64'000.0;
  config.traffic.sources = {1, 2, 5};
  config.group_members = {0, 3};
  config.anycast_share = 0.2;
  config.warmup_s = 100.0;
  config.measure_s = 500.0;
  config.seed = 7;
  return config;
}

TEST(Simulation, ProducesSaneResultsUnderLightLoad) {
  const net::Topology topo = net::topologies::ring(6);
  Simulation sim(topo, small_config(1.0));
  const SimulationResult result = sim.run();
  EXPECT_GT(result.offered, 100u);
  EXPECT_GE(result.admission_probability, 0.99);  // far below capacity
  EXPECT_LE(result.admission_probability, 1.0);
  EXPECT_GE(result.average_attempts, 1.0);
  EXPECT_EQ(result.dropped, 0u);
  EXPECT_GT(result.average_active_flows, 0.0);
}

TEST(Simulation, HeavyLoadBlocksSomeFlows) {
  // Ring links hold 312 flows; at lambda = 200, offered ≈ 6000 erlangs.
  const net::Topology topo = net::topologies::ring(6);
  Simulation sim(topo, small_config(200.0));
  const SimulationResult result = sim.run();
  EXPECT_LT(result.admission_probability, 0.9);
  EXPECT_GT(result.admission_probability, 0.0);
  EXPECT_GT(result.mean_link_utilization, 0.1);
  EXPECT_LE(result.max_link_utilization, 1.0 + 1e-9);
}

TEST(Simulation, SameSeedIsFullyReproducible) {
  const net::Topology topo = net::topologies::ring(6);
  Simulation a(topo, small_config(50.0));
  Simulation b(topo, small_config(50.0));
  const SimulationResult ra = a.run();
  const SimulationResult rb = b.run();
  EXPECT_EQ(ra.offered, rb.offered);
  EXPECT_EQ(ra.admitted, rb.admitted);
  EXPECT_DOUBLE_EQ(ra.admission_probability, rb.admission_probability);
  EXPECT_DOUBLE_EQ(ra.average_attempts, rb.average_attempts);
  EXPECT_EQ(ra.messages.total(), rb.messages.total());
}

TEST(Simulation, CommonRandomNumbersAcrossSystems) {
  // The fairness property behind every comparison bench: at equal seed,
  // different systems face the exact same request stream — same number of
  // offered requests in the window, same source sequence (checked via
  // identical per-source offered counts using the trace).
  const net::Topology topo = net::topologies::ring(6);
  SimulationConfig config = small_config(50.0);
  MemoryTraceSink trace_a;
  config.trace = &trace_a;
  config.algorithm = core::SelectionAlgorithm::kEvenDistribution;
  Simulation a(topo, config);
  const SimulationResult ra = a.run();

  MemoryTraceSink trace_b;
  config.trace = &trace_b;
  config.algorithm = core::SelectionAlgorithm::kDistanceBandwidth;
  Simulation b(topo, config);
  const SimulationResult rb = b.run();

  EXPECT_EQ(ra.offered, rb.offered);
  // Decision events (admitted + rejected) must occur at identical times.
  std::vector<double> times_a;
  for (const TraceEvent& e : trace_a.events()) {
    if (e.kind == TraceEventKind::kAdmitted || e.kind == TraceEventKind::kRejected) {
      times_a.push_back(e.time);
    }
  }
  std::vector<double> times_b;
  for (const TraceEvent& e : trace_b.events()) {
    if (e.kind == TraceEventKind::kAdmitted || e.kind == TraceEventKind::kRejected) {
      times_b.push_back(e.time);
    }
  }
  ASSERT_EQ(times_a.size(), times_b.size());
  for (std::size_t i = 0; i < times_a.size(); ++i) {
    ASSERT_DOUBLE_EQ(times_a[i], times_b[i]);
  }
}

TEST(Simulation, DifferentSeedsDifferButAgreeStatistically) {
  const net::Topology topo = net::topologies::ring(6);
  SimulationConfig config = small_config(50.0);
  Simulation a(topo, config);
  config.seed = 8;
  Simulation b(topo, config);
  const SimulationResult ra = a.run();
  const SimulationResult rb = b.run();
  EXPECT_NE(ra.offered, rb.offered);
  EXPECT_NEAR(ra.admission_probability, rb.admission_probability, 0.1);
}

TEST(Simulation, ReservedBandwidthMatchesActiveFlows) {
  const net::Topology topo = net::topologies::ring(6);
  Simulation sim(topo, small_config(20.0));
  (void)sim.run();
  // Whatever is still reserved must be whole flows' worth on some links.
  const double reserved = sim.ledger().total_reserved();
  const double per_flow = 64'000.0;
  EXPECT_NEAR(std::fmod(reserved, per_flow), 0.0, 1.0);
}

TEST(Simulation, GdiModeRunsAndBeatsNothingness) {
  const net::Topology topo = net::topologies::ring(6);
  SimulationConfig config = small_config(100.0);
  config.use_gdi = true;
  Simulation sim(topo, config);
  const SimulationResult result = sim.run();
  EXPECT_EQ(result.system_label, "GDI");
  EXPECT_GT(result.admission_probability, 0.0);
  EXPECT_DOUBLE_EQ(result.average_messages, 0.0);  // oracle has no signaling
  EXPECT_DOUBLE_EQ(result.average_attempts, 1.0);
}

TEST(Simulation, SystemLabels) {
  SimulationConfig config = small_config(1.0);
  config.algorithm = core::SelectionAlgorithm::kEvenDistribution;
  config.max_tries = 2;
  EXPECT_EQ(Simulation::system_label(config), "<ED,2>");
  config.algorithm = core::SelectionAlgorithm::kDistanceHistory;
  config.max_tries = 3;
  EXPECT_EQ(Simulation::system_label(config), "<WD/D+H,3>");
  config.algorithm = core::SelectionAlgorithm::kShortestPath;
  config.max_tries = 1;
  EXPECT_EQ(Simulation::system_label(config), "SP");
  config.use_gdi = true;
  EXPECT_EQ(Simulation::system_label(config), "GDI");
}

TEST(Simulation, AttemptsRespectRetryBudget) {
  const net::Topology topo = net::topologies::ring(6);
  SimulationConfig config = small_config(300.0);
  config.max_tries = 2;
  Simulation sim(topo, config);
  const SimulationResult result = sim.run();
  EXPECT_LE(result.attempts_histogram.max_value(), 2u);
  EXPECT_GE(result.average_attempts, 1.0);
  EXPECT_LE(result.average_attempts, 2.0);
}

TEST(Simulation, MessageAccountingConsistent) {
  const net::Topology topo = net::topologies::ring(6);
  Simulation sim(topo, small_config(30.0));
  const SimulationResult result = sim.run();
  using signaling::MessageKind;
  // Every admitted flow sent PATH+RESV over its route; failures added
  // PATH/PATH_ERR pairs; teardowns happen per departure. RESV hop total can
  // never exceed PATH hop total.
  EXPECT_LE(result.messages.by_kind(MessageKind::kResv),
            result.messages.by_kind(MessageKind::kPath));
  EXPECT_EQ(result.messages.by_kind(MessageKind::kProbe), 0u);  // ED probes nothing
}

TEST(Simulation, WdbProbesGenerateMessages) {
  const net::Topology topo = net::topologies::ring(6);
  SimulationConfig config = small_config(30.0);
  config.algorithm = core::SelectionAlgorithm::kDistanceBandwidth;
  Simulation sim(topo, config);
  const SimulationResult result = sim.run();
  EXPECT_GT(result.messages.by_kind(signaling::MessageKind::kProbe), 0u);
}

TEST(Simulation, RunTwiceRejected) {
  const net::Topology topo = net::topologies::ring(6);
  Simulation sim(topo, small_config(1.0));
  (void)sim.run();
  EXPECT_THROW(sim.run(), std::invalid_argument);
}

TEST(Simulation, ConfigValidation) {
  const net::Topology topo = net::topologies::ring(6);
  SimulationConfig config = small_config(1.0);
  config.group_members = {99};
  EXPECT_THROW(Simulation(topo, config), std::invalid_argument);
  config = small_config(1.0);
  config.traffic.sources = {99};
  EXPECT_THROW(Simulation(topo, config), std::invalid_argument);
  config = small_config(1.0);
  config.measure_s = 0.0;
  EXPECT_THROW(Simulation(topo, config), std::invalid_argument);
  config = small_config(1.0);
  config.faults.push_back(LinkFault{0, 2, 10.0, 20.0});  // no such link on the ring
  EXPECT_THROW(Simulation(topo, config), std::invalid_argument);
}

TEST(Simulation, SystemTupleCheckedAtConstruction) {
  // Controllers are built lazily on a source's first request, so a bad <A, R>
  // tuple must fail here rather than mid-run.
  const net::Topology topo = net::topologies::ring(6);
  SimulationConfig config = small_config(1.0);
  config.max_tries = 0;
  EXPECT_THROW(Simulation(topo, config), std::invalid_argument);
  config = small_config(1.0);
  config.alpha = 1.5;
  EXPECT_THROW(Simulation(topo, config), std::invalid_argument);
}

TEST(Simulation, PerDestinationSplitRoughlyEvenForEdOnSymmetricRing) {
  const net::Topology topo = net::topologies::ring(6);
  SimulationConfig config = small_config(10.0);
  config.traffic.sources = {1, 2, 4, 5};  // symmetric w.r.t. members {0, 3}
  Simulation sim(topo, config);
  const SimulationResult result = sim.run();
  const auto& per_dest = result.per_destination_admissions;
  ASSERT_EQ(per_dest.size(), 2u);
  const double total = static_cast<double>(per_dest[0] + per_dest[1]);
  EXPECT_NEAR(per_dest[0] / total, 0.5, 0.05);
}

}  // namespace
}  // namespace anyqos::sim
