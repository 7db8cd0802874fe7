#include "src/sim/flow_table.h"

#include <gtest/gtest.h>

#include <deque>

namespace anyqos::sim {
namespace {

// A flow points at its route; the routes here outlive every table, as a
// RouteTable outlives the flows it routes.
ActiveFlow flow_on_links(std::initializer_list<net::LinkId> links) {
  static std::deque<net::Path> routes;
  net::Path& route = routes.emplace_back();
  route.source = 0;
  route.destination = 1;
  route.links.assign(links);
  ActiveFlow flow;
  flow.source = 0;
  flow.destination_index = 0;
  flow.bandwidth_bps = 64'000.0;
  flow.route = &route;
  return flow;
}

TEST(FlowTable, InsertAssignsFreshIds) {
  FlowTable table;
  const FlowId a = table.insert(flow_on_links({0}));
  const FlowId b = table.insert(flow_on_links({1}));
  EXPECT_NE(a, b);
  EXPECT_EQ(table.size(), 2u);
  EXPECT_TRUE(table.contains(a));
}

TEST(FlowTable, TakeRemovesAndReturns) {
  FlowTable table;
  const FlowId id = table.insert(flow_on_links({3, 4}));
  const ActiveFlow flow = table.take(id);
  EXPECT_EQ(flow.id, id);
  EXPECT_EQ(flow.route->links.size(), 2u);
  EXPECT_FALSE(table.contains(id));
  EXPECT_TRUE(table.empty());
}

TEST(FlowTable, TakeMissingThrows) {
  FlowTable table;
  EXPECT_THROW(table.take(42), std::invalid_argument);
  const FlowId id = table.insert(flow_on_links({0}));
  table.take(id);
  EXPECT_THROW(table.take(id), std::invalid_argument);
}

TEST(FlowTable, GetWithoutRemoving) {
  FlowTable table;
  const FlowId id = table.insert(flow_on_links({7}));
  EXPECT_EQ(table.get(id).route->links[0], 7u);
  EXPECT_TRUE(table.contains(id));
  EXPECT_THROW(static_cast<void>(table.get(id + 1)), std::invalid_argument);
}

TEST(FlowTable, FlowsUsingLinkFindsExactlyMatching) {
  FlowTable table;
  const FlowId a = table.insert(flow_on_links({1, 2}));
  table.insert(flow_on_links({3}));
  const FlowId c = table.insert(flow_on_links({2, 4}));
  const auto on_2 = table.flows_using_link(2);
  ASSERT_EQ(on_2.size(), 2u);
  EXPECT_EQ(on_2[0], a);  // ascending id order
  EXPECT_EQ(on_2[1], c);
  EXPECT_TRUE(table.flows_using_link(99).empty());
}

TEST(FlowTable, ForEachVisitsInIdOrder) {
  FlowTable table;
  table.insert(flow_on_links({0}));
  table.insert(flow_on_links({1}));
  table.insert(flow_on_links({2}));
  std::vector<FlowId> seen;
  table.for_each([&](const ActiveFlow& flow) { seen.push_back(flow.id); });
  ASSERT_EQ(seen.size(), 3u);
  EXPECT_LT(seen[0], seen[1]);
  EXPECT_LT(seen[1], seen[2]);
}

TEST(FlowTable, IdsNotReusedAfterRemoval) {
  FlowTable table;
  const FlowId a = table.insert(flow_on_links({0}));
  table.take(a);
  const FlowId b = table.insert(flow_on_links({0}));
  EXPECT_GT(b, a);
}

}  // namespace
}  // namespace anyqos::sim
