#include "src/sim/experiment.h"

#include <gtest/gtest.h>

namespace anyqos::sim {
namespace {

TEST(PaperModel, MatchesSection51) {
  const ExperimentModel model = paper_model();
  EXPECT_EQ(model.topology.router_count(), 19u);
  // Sources at odd router ids.
  ASSERT_EQ(model.sources.size(), 9u);
  for (const net::NodeId s : model.sources) {
    EXPECT_EQ(s % 2, 1u);
  }
  EXPECT_EQ(model.group_members, (std::vector<net::NodeId>{0, 4, 8, 12, 16}));
  EXPECT_DOUBLE_EQ(model.flow_bandwidth_bps, 64'000.0);
  EXPECT_DOUBLE_EQ(model.mean_holding_s, 180.0);
  EXPECT_DOUBLE_EQ(model.anycast_share, 0.2);
}

TEST(PaperModel, BaseConfigCarriesModelIntoSimulationConfig) {
  const ExperimentModel model = paper_model();
  const SimulationConfig config = model.base_config(35.0);
  EXPECT_DOUBLE_EQ(config.traffic.arrival_rate, 35.0);
  EXPECT_DOUBLE_EQ(config.traffic.mean_holding_s, 180.0);
  EXPECT_EQ(config.traffic.sources.size(), 9u);
  EXPECT_EQ(config.group_members.size(), 5u);
  EXPECT_DOUBLE_EQ(config.anycast_share, 0.2);
  EXPECT_THROW(model.base_config(0.0), std::invalid_argument);
}

TEST(RunControlsHelper, AppliesAndValidates) {
  const ExperimentModel model = paper_model();
  SimulationConfig config = model.base_config(10.0);
  RunControls controls;
  controls.warmup_s = 123.0;
  controls.measure_s = 456.0;
  controls.seed = 99;
  apply_run_controls(config, controls);
  EXPECT_DOUBLE_EQ(config.warmup_s, 123.0);
  EXPECT_DOUBLE_EQ(config.measure_s, 456.0);
  EXPECT_EQ(config.seed, 99u);
  controls.measure_s = 0.0;
  EXPECT_THROW(apply_run_controls(config, controls), std::invalid_argument);
}

}  // namespace
}  // namespace anyqos::sim
