#include "src/net/reconvergence.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <stdexcept>
#include <vector>

#include "src/net/link_state.h"
#include "src/net/metrics.h"
#include "src/net/routing.h"
#include "src/net/topologies.h"

namespace anyqos::net {
namespace {

TEST(ReconvergencePolicy, FloodingScalesWithDiameter) {
  // delay = (diameter + 1) rounds: the LSA reaches the farthest router in
  // `diameter` flooding rounds, plus one round for the local SPF.
  const Topology line5 = topologies::line(5);  // diameter 4
  EXPECT_DOUBLE_EQ(flooding_delay_s(line5, 0.1), 0.5);
  EXPECT_DOUBLE_EQ(flooding_delay_s(topologies::ring(8), 0.1), 0.5);  // diameter 4
  EXPECT_DOUBLE_EQ(flooding_delay_s(topologies::line(9), 0.1), 0.9);  // diameter 8
  EXPECT_DOUBLE_EQ(flooding_delay_s(topologies::star(4), 0.1), 0.3);  // diameter 2
  EXPECT_DOUBLE_EQ(flooding_delay_s(line5, 2.0), 10.0);
  EXPECT_THROW((void)flooding_delay_s(line5, 0.0), std::invalid_argument);
}

/// The topologies the flooding delay is checked against, with whether the
/// worst single-link change needs every priced round.
struct PricedTopology {
  const char* name;
  Topology topology;
  bool tight;
};

std::vector<PricedTopology> priced_topologies() {
  std::vector<PricedTopology> cases;
  cases.push_back({"mci", topologies::mci_backbone(), true});
  cases.push_back({"ring:8", topologies::ring(8), false});
  cases.push_back({"ring:9", topologies::ring(9), true});
  cases.push_back({"grid:4x5", topologies::grid(4, 5), false});
  cases.push_back({"line:6", topologies::line(6), false});
  cases.push_back({"star:5", topologies::star(5), false});
  cases.push_back({"waxman:40x3", topologies::waxman(40, 0.6, 0.5, 3), true});
  return cases;
}

TEST(FloodingDelay, LinkStateConvergesWithinThePricedRoundsAfterAnySingleLinkChange) {
  // The link-state protocol is the oracle for the delay: after any single
  // duplex failure, and after its repair, flooding plus the fixed-point
  // round take at most diameter(intact) + 1 rounds — what the delay prices.
  for (const PricedTopology& c : priced_topologies()) {
    const std::size_t priced = diameter(c.topology) + 1;
    LinkStateProtocol protocol(c.topology);
    protocol.converge();
    std::size_t worst = 0;
    for (LinkId link = 0; link < c.topology.link_count(); link += 2) {
      protocol.fail_duplex_link(link);
      const std::size_t down_rounds = protocol.converge();
      protocol.restore_duplex_link(link);
      const std::size_t up_rounds = protocol.converge();
      ASSERT_TRUE(protocol.converged()) << c.name;
      EXPECT_LE(down_rounds, priced) << c.name << " link " << link << " down";
      EXPECT_LE(up_rounds, priced) << c.name << " link " << link << " up";
      worst = std::max({worst, down_rounds, up_rounds});
    }
    if (c.tight) {
      EXPECT_EQ(worst, priced) << c.name << ": the bound is reached";
    }
  }
}

TEST(FloodingDelay, RouterCrashCanOutlastThePricedRounds) {
  // The bound's scope: a crash fails every link of one router at once, and
  // each of those links' LSAs floods from its surviving end only, so the
  // routers behind the crash hear of it later than a single link change.
  const auto worst_crash = [](const Topology& topology) {
    std::size_t worst = 0;
    for (NodeId router = 0; router < topology.router_count(); ++router) {
      LinkStateProtocol protocol(topology);
      protocol.converge();
      for (LinkId link = 0; link < topology.link_count(); link += 2) {
        if (topology.link(link).from == router || topology.link(link).to == router) {
          protocol.fail_duplex_link(link);
        }
      }
      worst = std::max(worst, protocol.converge());
    }
    return worst;
  };
  const Topology mci = topologies::mci_backbone();
  EXPECT_EQ(diameter(mci) + 1, 6u);
  EXPECT_EQ(worst_crash(mci), 7u);
  const Topology ring9 = topologies::ring(9);
  EXPECT_EQ(diameter(ring9) + 1, 5u);
  EXPECT_EQ(worst_crash(ring9), 8u);
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
