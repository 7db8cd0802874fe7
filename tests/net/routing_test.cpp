#include "src/net/routing.h"

#include <gtest/gtest.h>

#include <set>
#include <string>
#include <type_traits>
#include <vector>

#include "src/net/topologies.h"

namespace anyqos::net {
namespace {

// 0 - 1 - 2
//  \     /
//   - 3 -      (square with a diagonal-free 4-cycle plus chord 0-2? no: plain cycle)
Topology square() {
  Topology topo;
  for (int i = 0; i < 4; ++i) {
    topo.add_router();
  }
  topo.add_duplex_link(0, 1, 100.0e6);
  topo.add_duplex_link(1, 2, 100.0e6);
  topo.add_duplex_link(0, 3, 100.0e6);
  topo.add_duplex_link(3, 2, 100.0e6);
  return topo;
}

TEST(ShortestPath, TrivialSelfPath) {
  const Topology topo = square();
  const auto path = shortest_path(topo, 1, 1);
  ASSERT_TRUE(path.has_value());
  EXPECT_EQ(path->hops(), 0u);
  EXPECT_EQ(path->source, 1u);
  EXPECT_EQ(path->destination, 1u);
}

TEST(ShortestPath, FindsMinimumHops) {
  const Topology topo = square();
  const auto path = shortest_path(topo, 0, 2);
  ASSERT_TRUE(path.has_value());
  EXPECT_EQ(path->hops(), 2u);
  topo.validate_path(*path);
}

TEST(ShortestPath, DeterministicTieBreak) {
  const Topology topo = square();
  // Two 2-hop routes 0->2 exist (via 1, via 3); link insertion order makes
  // the via-1 route the stable winner.
  const auto a = shortest_path(topo, 0, 2);
  const auto b = shortest_path(topo, 0, 2);
  ASSERT_TRUE(a.has_value() && b.has_value());
  EXPECT_EQ(a->links, b->links);
  EXPECT_EQ(topo.link(a->links[0]).to, 1u);
}

TEST(ShortestPath, DisconnectedReturnsNullopt) {
  Topology topo;
  topo.add_router();
  topo.add_router();
  EXPECT_FALSE(shortest_path(topo, 0, 1).has_value());
}

TEST(HopDistances, ComputesAllDistances) {
  const Topology topo = square();
  const auto dist = hop_distances(topo, 0);
  EXPECT_EQ(dist[0], 0u);
  EXPECT_EQ(dist[1], 1u);
  EXPECT_EQ(dist[2], 2u);
  EXPECT_EQ(dist[3], 1u);
}

TEST(HopDistances, UnreachableMarked) {
  Topology topo;
  topo.add_router();
  topo.add_router();
  const auto dist = hop_distances(topo, 0);
  EXPECT_EQ(dist[1], kUnreachable);
}

TEST(ShortestFeasiblePath, RespectsAvailability) {
  const Topology topo = square();
  BandwidthLedger ledger(topo, 1.0);
  // Block the direct 0->1 link so the feasible route detours via 3.
  Path block;
  block.source = 0;
  block.destination = 1;
  block.links = {*topo.find_link(0, 1)};
  ASSERT_TRUE(ledger.reserve(block, 100.0e6));
  const auto path = shortest_feasible_path(topo, ledger, 0, 2, 64'000.0);
  ASSERT_TRUE(path.has_value());
  EXPECT_EQ(path->hops(), 2u);
  EXPECT_EQ(topo.link(path->links[0]).to, 3u);
}

TEST(ShortestFeasiblePath, NulloptWhenSaturated) {
  const Topology topo = square();
  BandwidthLedger ledger(topo, 1.0);
  for (const auto& [a, b] : {std::pair{0, 1}, std::pair{0, 3}}) {
    Path block;
    block.source = static_cast<NodeId>(a);
    block.destination = static_cast<NodeId>(b);
    block.links = {*topo.find_link(static_cast<NodeId>(a), static_cast<NodeId>(b))};
    ASSERT_TRUE(ledger.reserve(block, 100.0e6));
  }
  EXPECT_FALSE(shortest_feasible_path(topo, ledger, 0, 2, 64'000.0).has_value());
}

TEST(ShortestFeasiblePathToAny, PicksNearestFeasibleMember) {
  const Topology topo = square();
  BandwidthLedger ledger(topo, 1.0);
  const std::vector<NodeId> members = {2, 1};
  const auto path = shortest_feasible_path_to_any(topo, ledger, 0, members, 64'000.0);
  ASSERT_TRUE(path.has_value());
  EXPECT_EQ(path->destination, 1u);  // 1 hop beats 2 hops
}

TEST(ShortestFeasiblePathToAny, FallsBackWhenNearestBlocked) {
  const Topology topo = square();
  BandwidthLedger ledger(topo, 1.0);
  Path block;
  block.source = 0;
  block.destination = 1;
  block.links = {*topo.find_link(0, 1)};
  ASSERT_TRUE(ledger.reserve(block, 100.0e6));
  const std::vector<NodeId> members = {1, 3};
  const auto path = shortest_feasible_path_to_any(topo, ledger, 0, members, 64'000.0);
  ASSERT_TRUE(path.has_value());
  EXPECT_EQ(path->destination, 3u);
}

TEST(KShortestPaths, EnumeratesDistinctLooplessPaths) {
  const Topology topo = square();
  const auto paths = k_shortest_paths(topo, 0, 2, 5);
  ASSERT_EQ(paths.size(), 2u);  // only two loopless routes exist
  EXPECT_EQ(paths[0].hops(), 2u);
  EXPECT_EQ(paths[1].hops(), 2u);
  EXPECT_NE(paths[0].links, paths[1].links);
  for (const Path& p : paths) {
    topo.validate_path(p);
  }
}

TEST(KShortestPaths, NonDecreasingLengths) {
  const Topology topo = topologies::mci_backbone();
  const auto paths = k_shortest_paths(topo, 1, 16, 8);
  ASSERT_GE(paths.size(), 3u);
  for (std::size_t i = 1; i < paths.size(); ++i) {
    EXPECT_GE(paths[i].hops(), paths[i - 1].hops());
  }
  // All distinct.
  std::set<std::vector<LinkId>> seen;
  for (const Path& p : paths) {
    EXPECT_TRUE(seen.insert(p.links).second);
  }
}

TEST(KShortestPaths, DisconnectedGivesEmpty) {
  Topology topo;
  topo.add_router();
  topo.add_router();
  EXPECT_TRUE(k_shortest_paths(topo, 0, 1, 3).empty());
}

TEST(RouteTable, StoresFixedRoutes) {
  const Topology topo = square();
  const RouteTable table(topo, {2, 1});
  EXPECT_EQ(table.destination_count(), 2u);
  EXPECT_EQ(table.route(0, 0).destination, 2u);
  EXPECT_EQ(table.route(0, 1).destination, 1u);
  EXPECT_EQ(table.distance(0, 0), 2u);
  EXPECT_EQ(table.distance(0, 1), 1u);
  EXPECT_EQ(table.distance(2, 0), 0u);  // member co-located
}

TEST(RouteTable, RecomputeKeepsHandedOutRoutes) {
  // Grid 3x3, router 0 to member 8. A flow holds a reference to the route;
  // failing a link on it moves the pair to a detour without touching the
  // route the flow holds, and the intact path's return gives the pair its
  // original object back.
  const Topology topo = topologies::grid(3, 3);
  RouteTable table(topo, {8});
  const Path& held = table.route(0, 0);
  const std::vector<LinkId> original = held.links;
  ASSERT_FALSE(original.empty());

  std::vector<char> duplex_up(topo.link_count() / 2, 1);
  duplex_up[original.front() / 2] = 0;
  table.recompute(topo, duplex_up);
  EXPECT_EQ(held.links, original);
  const Path& detour = table.route(0, 0);
  EXPECT_NE(&detour, &held);
  EXPECT_NE(detour.links, original);
  EXPECT_EQ(detour.hops(), original.size());  // the grid has equal-length detours

  const std::vector<char> all_up(topo.link_count() / 2, 1);
  table.recompute(topo, all_up);
  EXPECT_EQ(&table.route(0, 0), &held);

  // A second fail/repair cycle reuses the detour it handed out before.
  table.recompute(topo, duplex_up);
  EXPECT_EQ(&table.route(0, 0), &detour);
  table.recompute(topo, all_up);
  EXPECT_EQ(&table.route(0, 0), &held);

  // Moving the table keeps every handed-out route where it is.
  const RouteTable moved = std::move(table);
  EXPECT_EQ(&moved.route(0, 0), &held);
  EXPECT_EQ(detour.links.size(), original.size());
}

static_assert(!std::is_copy_constructible_v<RouteTable>,
              "a copy would point into the original's routes");

TEST(RouteTable, ShortestDestinationWithTieTowardLowerIndex) {
  const Topology topo = square();
  const RouteTable table(topo, {1, 3});
  // From node 0 both members are 1 hop away; index 0 wins.
  EXPECT_EQ(table.shortest_destination(0), 0u);
  // From node 2 both are 1 hop away as well; index 0 wins.
  EXPECT_EQ(table.shortest_destination(2), 0u);
  // From node 1 itself member 0 is 0 hops.
  EXPECT_EQ(table.shortest_destination(1), 0u);
}

TEST(RouteTable, DisconnectedTopologyRejected) {
  Topology topo;
  topo.add_router();
  topo.add_router();
  try {
    const RouteTable table(topo, {1});
    FAIL() << "expected std::invalid_argument";
  } catch (const std::invalid_argument& error) {
    EXPECT_NE(std::string(error.what()).find("no route from 0 to 1"), std::string::npos)
        << error.what();
  }
}

TEST(RouteTable, DestinationMustBeARouter) {
  EXPECT_THROW(RouteTable(square(), {9}), std::invalid_argument);
  EXPECT_THROW(RouteTable(square(), {}), std::invalid_argument);
}

TEST(RouteTable, OutOfRangeQueriesRejected) {
  const Topology topo = square();
  const RouteTable table(topo, {2});
  EXPECT_THROW(static_cast<void>(table.route(9, 0)), std::invalid_argument);
  EXPECT_THROW(static_cast<void>(table.route(0, 5)), std::invalid_argument);
}

}  // namespace
}  // namespace anyqos::net
