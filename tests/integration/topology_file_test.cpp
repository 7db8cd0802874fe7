// End-to-end: a topology written to disk drives the identical evaluation as
// the built-in builder — the dacsim --topology=file:PATH workflow.
#include <gtest/gtest.h>

#include <cstdio>

#include "src/net/topology_io.h"
#include "src/sim/experiment.h"

namespace anyqos {
namespace {

TEST(TopologyFileRoundTrip, LoadedBackboneReproducesBuiltInResults) {
  const sim::ExperimentModel model = sim::paper_model();
  const std::string path = ::testing::TempDir() + "/anyqos_mci_roundtrip.topo";
  net::save_topology(model.topology, path);
  const net::Topology loaded = net::load_topology(path);
  std::remove(path.c_str());

  sim::SimulationConfig config = model.base_config(30.0);
  config.algorithm = core::SelectionAlgorithm::kDistanceHistory;
  config.warmup_s = 300.0;
  config.measure_s = 1'500.0;
  config.seed = 12;

  sim::Simulation original(model.topology, config);
  sim::Simulation roundtripped(loaded, config);
  const sim::SimulationResult a = original.run();
  const sim::SimulationResult b = roundtripped.run();

  // Same topology + same seed => bit-identical runs.
  EXPECT_EQ(a.offered, b.offered);
  EXPECT_EQ(a.admitted, b.admitted);
  EXPECT_DOUBLE_EQ(a.admission_probability, b.admission_probability);
  EXPECT_DOUBLE_EQ(a.average_attempts, b.average_attempts);
  EXPECT_EQ(a.messages.total(), b.messages.total());
  EXPECT_EQ(a.per_destination_admissions, b.per_destination_admissions);
}

TEST(TopologyFileRoundTrip, HandWrittenFileDrivesFullStack) {
  // A user-authored topology (not produced by save_topology) runs the whole
  // pipeline: parse -> routes -> simulate.
  const std::string text =
      "# tiny dumbbell\n"
      "node 0 left-a\n"
      "node 1 left-b\n"
      "node 2 right-a\n"
      "node 3 right-b\n"
      "link 0 1 100000000\n"
      "link 2 3 100000000\n"
      "link 1 2 20000000\n";
  const net::Topology topo = net::parse_topology_text(text);
  sim::SimulationConfig config;
  config.traffic.arrival_rate = 3.0;
  config.traffic.mean_holding_s = 30.0;
  config.traffic.flow_bandwidth_bps = 64'000.0;
  config.traffic.sources = {0};
  config.group_members = {3};
  config.anycast_share = 0.5;
  config.warmup_s = 50.0;
  config.measure_s = 400.0;
  config.seed = 4;
  config.max_tries = 1;
  sim::Simulation simulation(topo, config);
  const sim::SimulationResult result = simulation.run();
  EXPECT_GT(result.offered, 0u);
  // 3/s * 30s = 90 erlangs over a 10 Mbit anycast waist (156 circuits): all in.
  EXPECT_GT(result.admission_probability, 0.99);
}

}  // namespace
}  // namespace anyqos
