#include "src/net/metrics.h"

#include <gtest/gtest.h>

#include "src/net/topologies.h"

namespace anyqos::net {
namespace {

TEST(GraphMetrics, LineDiameterAndDegrees) {
  const Topology topo = topologies::line(5);
  EXPECT_EQ(diameter(topo), 4u);
  const auto deg = degrees(topo);
  EXPECT_EQ(deg[0], 1u);
  EXPECT_EQ(deg[2], 2u);
  EXPECT_EQ(deg[4], 1u);
  EXPECT_DOUBLE_EQ(average_degree(topo), 2.0 * 4.0 / 5.0);
}

TEST(GraphMetrics, RingIsSymmetric) {
  const Topology topo = topologies::ring(8);
  EXPECT_EQ(diameter(topo), 4u);
  for (const std::size_t d : degrees(topo)) {
    EXPECT_EQ(d, 2u);
  }
  EXPECT_DOUBLE_EQ(average_degree(topo), 2.0);
}

TEST(GraphMetrics, StarHasDiameterTwo) {
  const Topology topo = topologies::star(10);
  EXPECT_EQ(diameter(topo), 2u);
  EXPECT_EQ(degrees(topo)[0], 9u);
}

TEST(GraphMetrics, DiameterMatchesKnownShapes) {
  EXPECT_EQ(diameter(topologies::line(6)), 5u);
  EXPECT_EQ(diameter(topologies::ring(6)), 3u);
  EXPECT_EQ(diameter(topologies::star(5)), 2u);
  EXPECT_EQ(diameter(topologies::grid(3, 3)), 4u);
}

TEST(GraphMetrics, MciBackboneShape) {
  const Topology topo = topologies::mci_backbone();
  // 33 duplex links over 19 routers: average degree ~3.47.
  EXPECT_NEAR(average_degree(topo), 2.0 * 33.0 / 19.0, 1e-12);
  const std::size_t d = diameter(topo);
  EXPECT_GE(d, 4u);
  EXPECT_LE(d, 7u);
  EXPECT_GT(mean_distance(topo), 1.5);
  EXPECT_LT(mean_distance(topo), static_cast<double>(d));
}

TEST(GraphMetrics, MeanDistanceLine) {
  // Line of 3: distances 1,2,1,1,2,1 -> mean 8/6.
  const Topology topo = topologies::line(3);
  EXPECT_NEAR(mean_distance(topo), 8.0 / 6.0, 1e-12);
}

TEST(GraphMetrics, DisconnectedRejected) {
  Topology topo;
  topo.add_router();
  topo.add_router();
  EXPECT_THROW(diameter(topo), std::invalid_argument);
  EXPECT_THROW(mean_distance(topo), std::invalid_argument);
}

}  // namespace
}  // namespace anyqos::net
