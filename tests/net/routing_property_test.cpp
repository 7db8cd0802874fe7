// Randomized cross-validation of the routing algorithms against brute-force
// enumeration on small random topologies.
#include <gtest/gtest.h>

#include <algorithm>
#include <set>
#include <vector>

#include "src/des/random.h"
#include "src/net/routing.h"
#include "src/net/topologies.h"

namespace anyqos::net {
namespace {

/// All loopless paths source->destination by DFS (exponential; small n only).
void enumerate_paths(const Topology& topo, NodeId at, NodeId destination,
                     std::vector<LinkId>& prefix, std::vector<char>& visited,
                     std::vector<std::vector<LinkId>>& out) {
  if (at == destination) {
    out.push_back(prefix);
    return;
  }
  for (const LinkId id : topo.graph().out_arcs(at)) {
    const NodeId next = topo.link(id).to;
    if (visited[next] != 0) {
      continue;
    }
    visited[next] = 1;
    prefix.push_back(id);
    enumerate_paths(topo, next, destination, prefix, visited, out);
    prefix.pop_back();
    visited[next] = 0;
  }
}

std::vector<std::vector<LinkId>> all_paths(const Topology& topo, NodeId s, NodeId d) {
  std::vector<std::vector<LinkId>> out;
  std::vector<LinkId> prefix;
  std::vector<char> visited(topo.router_count(), 0);
  visited[s] = 1;
  enumerate_paths(topo, s, d, prefix, visited, out);
  return out;
}

/// Every route of RouteTable(topo, members) is the pair's shortest_path():
/// one BFS tree per router must reproduce the per-pair BFS tie-break.
void expect_table_matches_shortest_paths(const Topology& topo,
                                         const std::vector<NodeId>& members) {
  const RouteTable table(topo, members);
  for (NodeId s = 0; s < topo.router_count(); ++s) {
    for (std::size_t i = 0; i < members.size(); ++i) {
      const Path& route = table.route(s, i);
      const auto expected = shortest_path(topo, s, members[i]);
      ASSERT_TRUE(expected.has_value());
      EXPECT_EQ(route.source, s);
      EXPECT_EQ(route.destination, members[i]);
      EXPECT_EQ(route.links, expected->links)
          << topo.router_count() << " routers: " << s << "->" << members[i];
    }
  }
}

class RoutingBruteForce : public ::testing::TestWithParam<std::uint64_t> {
 protected:
  Topology topo_ = topologies::waxman(9, 0.7, 0.6, GetParam());
};

TEST_P(RoutingBruteForce, ShortestPathIsTrulyShortest) {
  for (NodeId s = 0; s < topo_.router_count(); ++s) {
    for (NodeId d = 0; d < topo_.router_count(); ++d) {
      if (s == d) {
        continue;
      }
      const auto enumerated = all_paths(topo_, s, d);
      const auto bfs = shortest_path(topo_, s, d);
      if (enumerated.empty()) {
        EXPECT_FALSE(bfs.has_value());
        continue;
      }
      ASSERT_TRUE(bfs.has_value());
      std::size_t best = enumerated.front().size();
      for (const auto& p : enumerated) {
        best = std::min(best, p.size());
      }
      EXPECT_EQ(bfs->hops(), best) << s << "->" << d;
    }
  }
}

TEST_P(RoutingBruteForce, KShortestEnumeratesTheTrueTopK) {
  const NodeId s = 0;
  const NodeId d = static_cast<NodeId>(topo_.router_count() - 1);
  auto enumerated = all_paths(topo_, s, d);
  ASSERT_FALSE(enumerated.empty());
  std::sort(enumerated.begin(), enumerated.end(),
            [](const auto& a, const auto& b) { return a.size() < b.size(); });
  const std::size_t k = std::min<std::size_t>(6, enumerated.size());
  const auto yen = k_shortest_paths(topo_, s, d, k);
  ASSERT_EQ(yen.size(), k);
  // Hop-count multiset of the top-k must match (the concrete paths may tie).
  for (std::size_t i = 0; i < k; ++i) {
    EXPECT_EQ(yen[i].hops(), enumerated[i].size()) << "rank " << i;
  }
  // And every returned path must genuinely exist and be distinct.
  std::set<std::vector<LinkId>> seen;
  for (const Path& p : yen) {
    topo_.validate_path(p);
    EXPECT_TRUE(seen.insert(p.links).second);
  }
}

TEST_P(RoutingBruteForce, FeasiblePathAgreesWithEnumeration) {
  BandwidthLedger ledger(topo_, 1.0);
  des::RandomStream rng(GetParam() * 31 + 5);
  // Saturate a random third of the links.
  for (LinkId id = 0; id < topo_.link_count(); ++id) {
    if (rng.bernoulli(0.33)) {
      Path one;
      one.source = topo_.link(id).from;
      one.destination = topo_.link(id).to;
      one.links = {id};
      ASSERT_TRUE(ledger.reserve(one, ledger.capacity(id)));
    }
  }
  const double demand = 64'000.0;
  for (NodeId s = 0; s < topo_.router_count(); ++s) {
    for (NodeId d = 0; d < topo_.router_count(); ++d) {
      if (s == d) {
        continue;
      }
      bool exists = false;
      for (const auto& links : all_paths(topo_, s, d)) {
        bool ok = true;
        for (const LinkId id : links) {
          if (ledger.available(id) < demand) {
            ok = false;
            break;
          }
        }
        if (ok) {
          exists = true;
          break;
        }
      }
      EXPECT_EQ(shortest_feasible_path(topo_, ledger, s, d, demand).has_value(), exists)
          << s << "->" << d;
    }
  }
}

TEST_P(RoutingBruteForce, RouteTableMatchesPerPairShortestPath) {
  // Every router a member, listed in reverse so index i != router id.
  std::vector<NodeId> members;
  for (auto d = static_cast<NodeId>(topo_.router_count()); d-- > 0;) {
    members.push_back(d);
  }
  expect_table_matches_shortest_paths(topo_, members);
}

TEST(RouteTableOracle, MatchesPerPairShortestPathOnLargerTopologies) {
  for (const Topology& topo : {topologies::mci_backbone(), topologies::grid(4, 5),
                               topologies::waxman(200, 0.05, 0.1, 7)}) {
    // Twelve distinct members in scrambled order, so index i != router id.
    std::vector<NodeId> members;
    for (std::size_t i = 0; i < 12; ++i) {
      members.push_back(static_cast<NodeId>((i * 67 + 3) % topo.router_count()));
    }
    expect_table_matches_shortest_paths(topo, members);
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, RoutingBruteForce, ::testing::Values(11u, 22u, 33u));

}  // namespace
}  // namespace anyqos::net
