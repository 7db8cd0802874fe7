#include "src/net/reconvergence.h"

#include <gtest/gtest.h>

#include <vector>

#include "src/net/routing.h"
#include "src/net/topologies.h"

namespace anyqos::net {
namespace {

TEST(ReconvergencePolicy, InstantIsZeroEverywhere) {
  InstantReconvergence policy;
  EXPECT_DOUBLE_EQ(policy.delay_s(topologies::line(2)), 0.0);
  EXPECT_DOUBLE_EQ(policy.delay_s(topologies::mci_backbone()), 0.0);
  EXPECT_EQ(policy.name(), "instant");
}

TEST(ReconvergencePolicy, FixedIgnoresTopologyShape) {
  FixedReconvergence policy(2.5);
  EXPECT_DOUBLE_EQ(policy.delay_s(topologies::line(2)), 2.5);
  EXPECT_DOUBLE_EQ(policy.delay_s(topologies::grid(5, 5)), 2.5);
  EXPECT_EQ(policy.name(), "fixed");
  EXPECT_THROW(FixedReconvergence(-1.0), std::invalid_argument);
}

TEST(ReconvergencePolicy, FloodingScalesWithDiameter) {
  // delay = (diameter + 1) rounds: the LSA reaches the farthest router in
  // `diameter` flooding rounds, plus one round for the local SPF.
  FloodingReconvergence policy(0.1);
  const Topology line5 = topologies::line(5);  // diameter 4
  EXPECT_DOUBLE_EQ(policy.delay_s(line5), 0.5);
  FloodingReconvergence ring_policy(0.1);
  const Topology ring8 = topologies::ring(8);  // diameter 4
  EXPECT_DOUBLE_EQ(ring_policy.delay_s(ring8), 0.5);
  // One policy object prices each topology it is asked about, not the first.
  EXPECT_DOUBLE_EQ(policy.delay_s(topologies::line(9)), 0.9);  // diameter 8
  EXPECT_DOUBLE_EQ(policy.delay_s(topologies::star(4)), 0.3);  // diameter 2
  EXPECT_DOUBLE_EQ(policy.delay_s(line5), 0.5);
  EXPECT_EQ(policy.name(), "flooding");
  EXPECT_THROW(FloodingReconvergence(0.0), std::invalid_argument);
}

TEST(RouteTableRecompute, AllLinksUpReproducesTheInitialTable) {
  // The determinism cornerstone: recompute with everything in service must
  // be byte-for-byte the constructor's table (same BFS tie-break).
  const Topology topo = topologies::mci_backbone();
  RouteTable fresh(topo, {0, 4, 9, 14});
  RouteTable cycled(topo, {0, 4, 9, 14});
  const std::vector<char> all_up(topo.link_count() / 2, 1);
  cycled.recompute(topo, all_up);
  for (NodeId s = 0; s < topo.router_count(); ++s) {
    for (std::size_t i = 0; i < fresh.destination_count(); ++i) {
      ASSERT_TRUE(cycled.has_route(s, i));
      EXPECT_EQ(cycled.route(s, i).links, fresh.route(s, i).links) << s << "->" << i;
    }
  }
}

TEST(RouteTableRecompute, RoutesAvoidDownLinksAndMatchPrunedBfs) {
  const Topology topo = topologies::grid(4, 4);
  RouteTable table(topo, {0, 15});
  std::vector<char> duplex_up(topo.link_count() / 2, 1);
  const LinkId victim = *topo.find_link(5, 6);
  duplex_up[victim / 2] = 0;
  table.recompute(topo, duplex_up);
  for (NodeId s = 0; s < topo.router_count(); ++s) {
    for (std::size_t i = 0; i < table.destination_count(); ++i) {
      ASSERT_TRUE(table.has_route(s, i)) << "grid stays connected";
      for (const LinkId link : table.route(s, i).links) {
        EXPECT_NE(link / 2, victim / 2) << s << "->" << i;
      }
    }
  }
}

TEST(RouteTableRecompute, PartitionKeepsStalePathButClearsHasRoute) {
  // Line 0-1-2: cutting 1-2 strands destination index 1 (router 2) for
  // sources 0 and 1. The stale path must survive (distance() stays defined
  // for selectors) while has_route() reports the partition.
  const Topology topo = topologies::line(3);
  RouteTable table(topo, {0, 2});
  const Path before = table.route(0, 1);
  std::vector<char> duplex_up(topo.link_count() / 2, 1);
  duplex_up[*topo.find_link(1, 2) / 2] = 0;
  table.recompute(topo, duplex_up);
  EXPECT_FALSE(table.has_route(0, 1));
  EXPECT_FALSE(table.has_route(1, 1));
  EXPECT_TRUE(table.has_route(0, 0));
  EXPECT_EQ(table.route(0, 1).links, before.links);  // stale but defined
  // shortest_destination skips the stranded member.
  EXPECT_EQ(table.shortest_destination(1), 0u);
  // Reconnecting restores reachability and the original route.
  duplex_up[*topo.find_link(1, 2) / 2] = 1;
  table.recompute(topo, duplex_up);
  EXPECT_TRUE(table.has_route(0, 1));
  EXPECT_EQ(table.route(0, 1).links, before.links);
}

}  // namespace
}  // namespace anyqos::net
