#include "src/net/routing.h"

#include <algorithm>
#include <queue>
#include <set>
#include <string>
#include <type_traits>

#include "src/util/require.h"

namespace anyqos::net {

namespace {

/// BFS from `source`; `usable(link)` filters links. Fills parent-link array.
/// Returns per-node hop distances (kUnreachable where not visited).
template <typename LinkFilter>
std::vector<std::size_t> bfs(const Topology& topology, NodeId source, LinkFilter usable,
                             std::vector<LinkId>* parent_link) {
  const std::size_t n = topology.router_count();
  util::require(source < n, "source out of range");
  std::vector<std::size_t> dist(n, kUnreachable);
  if (parent_link != nullptr) {
    parent_link->assign(n, kInvalidLink);
  }
  std::queue<NodeId> frontier;
  dist[source] = 0;
  frontier.push(source);
  while (!frontier.empty()) {
    const NodeId u = frontier.front();
    frontier.pop();
    for (const LinkId id : topology.graph().out_arcs(u)) {
      if (!usable(id)) {
        continue;
      }
      const NodeId v = topology.link(id).to;
      if (dist[v] != kUnreachable) {
        continue;
      }
      dist[v] = dist[u] + 1;
      if (parent_link != nullptr) {
        (*parent_link)[v] = id;
      }
      frontier.push(v);
    }
  }
  return dist;
}

Path unwind(const Topology& topology, NodeId source, NodeId destination,
            const std::vector<LinkId>& parent_link) {
  Path path;
  path.source = source;
  path.destination = destination;
  NodeId at = destination;
  while (at != source) {
    const LinkId id = parent_link[at];
    util::ensure(id != kInvalidLink, "unwind hit a node with no parent");
    path.links.push_back(id);
    at = topology.link(id).from;
  }
  std::reverse(path.links.begin(), path.links.end());
  return path;
}

}  // namespace

std::optional<Path> shortest_path(const Topology& topology, NodeId source, NodeId destination) {
  util::require(destination < topology.router_count(), "destination out of range");
  std::vector<LinkId> parent;
  const auto dist = bfs(topology, source, [](LinkId) { return true; }, &parent);
  if (dist[destination] == kUnreachable) {
    return std::nullopt;
  }
  return unwind(topology, source, destination, parent);
}

std::vector<std::size_t> hop_distances(const Topology& topology, NodeId source) {
  return bfs(topology, source, [](LinkId) { return true; }, nullptr);
}

std::optional<Path> shortest_feasible_path(const Topology& topology, const BandwidthLedger& ledger,
                                           NodeId source, NodeId destination, Bandwidth bandwidth) {
  util::require(destination < topology.router_count(), "destination out of range");
  util::require(bandwidth > 0.0, "bandwidth must be positive");
  std::vector<LinkId> parent;
  const auto usable = [&](LinkId id) { return ledger.available(id) >= bandwidth; };
  const auto dist = bfs(topology, source, usable, &parent);
  if (dist[destination] == kUnreachable) {
    return std::nullopt;
  }
  return unwind(topology, source, destination, parent);
}

std::optional<Path> shortest_feasible_path_to_any(const Topology& topology,
                                                  const BandwidthLedger& ledger, NodeId source,
                                                  std::span<const NodeId> destinations,
                                                  Bandwidth bandwidth) {
  util::require(!destinations.empty(), "destination set must be non-empty");
  util::require(bandwidth > 0.0, "bandwidth must be positive");
  std::vector<LinkId> parent;
  const auto usable = [&](LinkId id) { return ledger.available(id) >= bandwidth; };
  const auto dist = bfs(topology, source, usable, &parent);
  std::optional<NodeId> best;
  std::size_t best_dist = kUnreachable;
  for (const NodeId d : destinations) {
    util::require(d < topology.router_count(), "destination out of range");
    if (dist[d] < best_dist) {
      best = d;
      best_dist = dist[d];
    }
  }
  if (!best.has_value()) {
    return std::nullopt;
  }
  return unwind(topology, source, *best, parent);
}

std::vector<Path> k_shortest_paths(const Topology& topology, NodeId source, NodeId destination,
                                   std::size_t k) {
  util::require(k >= 1, "k must be at least 1");
  std::vector<Path> result;
  auto first = shortest_path(topology, source, destination);
  if (!first.has_value()) {
    return result;
  }
  result.push_back(std::move(*first));

  // Candidate set ordered by (hops, node sequence) for determinism.
  struct Candidate {
    std::vector<NodeId> nodes;
    Path path;
  };
  const auto path_nodes = [&](const Path& p) {
    std::vector<NodeId> nodes{p.source};
    for (const LinkId id : p.links) {
      nodes.push_back(topology.link(id).to);
    }
    return nodes;
  };
  const auto candidate_less = [](const Candidate& a, const Candidate& b) {
    if (a.path.hops() != b.path.hops()) {
      return a.path.hops() < b.path.hops();
    }
    return a.nodes < b.nodes;
  };
  std::vector<Candidate> candidates;

  while (result.size() < k) {
    const Path& last = result.back();
    const std::vector<NodeId> last_nodes = path_nodes(last);
    // Spur from every node of the previous path (Yen).
    for (std::size_t spur = 0; spur + 1 < last_nodes.size(); ++spur) {
      const NodeId spur_node = last_nodes[spur];
      // Links removed: next link of any accepted path sharing the root.
      std::set<LinkId> banned_links;
      for (const Path& p : result) {
        const std::vector<NodeId> nodes = path_nodes(p);
        if (nodes.size() > spur &&
            std::equal(nodes.begin(), nodes.begin() + static_cast<std::ptrdiff_t>(spur + 1),
                       last_nodes.begin())) {
          banned_links.insert(p.links[spur]);
        }
      }
      // Nodes removed: the root path nodes except the spur node.
      std::set<NodeId> banned_nodes(last_nodes.begin(),
                                    last_nodes.begin() + static_cast<std::ptrdiff_t>(spur));
      // BFS avoiding banned links/nodes.
      std::vector<LinkId> parent;
      const auto usable = [&](LinkId id) {
        if (banned_links.count(id) != 0) {
          return false;
        }
        const Arc& arc = topology.link(id);
        return banned_nodes.count(arc.to) == 0 && banned_nodes.count(arc.from) == 0;
      };
      const auto dist = bfs(topology, spur_node, usable, &parent);
      if (dist[destination] == kUnreachable) {
        continue;
      }
      Path spur_path = unwind(topology, spur_node, destination, parent);
      // Total path = root (links 0..spur-1 of last) + spur path.
      Path total;
      total.source = source;
      total.destination = destination;
      total.links.assign(last.links.begin(), last.links.begin() + static_cast<std::ptrdiff_t>(spur));
      total.links.insert(total.links.end(), spur_path.links.begin(), spur_path.links.end());
      Candidate cand{path_nodes(total), std::move(total)};
      // Deduplicate against accepted paths and existing candidates.
      bool duplicate = false;
      for (const Path& p : result) {
        if (p.links == cand.path.links) {
          duplicate = true;
          break;
        }
      }
      for (const Candidate& c : candidates) {
        if (c.path.links == cand.path.links) {
          duplicate = true;
          break;
        }
      }
      if (!duplicate) {
        candidates.push_back(std::move(cand));
      }
    }
    if (candidates.empty()) {
      break;
    }
    const auto best = std::min_element(candidates.begin(), candidates.end(), candidate_less);
    result.push_back(std::move(best->path));
    candidates.erase(best);
  }
  return result;
}

static_assert(std::is_nothrow_move_constructible_v<RouteTable>,
              "GroupState keeps its RouteTable in a std::vector");

RouteTable::RouteTable(const Topology& topology, std::vector<NodeId> destinations)
    : destinations_(std::move(destinations)), router_count_(topology.router_count()) {
  util::require(!destinations_.empty(), "route table needs at least one destination");
  for (const NodeId d : destinations_) {
    util::require(d < router_count_, "destination out of range");
  }
  // One BFS tree per router serves every member. shortest_path(s, d) builds
  // the same tree for each d, so every route equals its per-pair result.
  intact_.reserve(router_count_ * destinations_.size());
  std::vector<LinkId> parent;
  for (NodeId s = 0; s < router_count_; ++s) {
    const auto dist = bfs(topology, s, [](LinkId) { return true; }, &parent);
    for (const NodeId d : destinations_) {
      if (dist[d] == kUnreachable) {
        std::string message = "topology is disconnected: no route from ";
        message += std::to_string(s);
        message += " to ";
        message += std::to_string(d);
        util::fail_requirement(message);
      }
      intact_.push_back(unwind(topology, s, d, parent));
    }
  }
  routes_.reserve(intact_.size());
  for (const Path& path : intact_) {
    routes_.push_back(&path);
  }
  reachable_.assign(intact_.size(), 1);
}

void RouteTable::recompute(const Topology& topology, const std::vector<char>& duplex_up) {
  util::require(topology.router_count() == router_count_, "topology shape changed");
  util::require(duplex_up.size() == topology.link_count() / 2,
                "duplex_up must have one entry per duplex link");
  const auto usable = [&](LinkId id) { return duplex_up[id / 2] != 0; };
  std::vector<LinkId> parent;
  // True when `path` is the tree path unwind() would produce: every link is
  // the parent link of the node it enters.
  const auto in_tree = [&](const Path& path) {
    return std::all_of(path.links.begin(), path.links.end(),
                       [&](LinkId id) { return parent[topology.link(id).to] == id; });
  };
  for (NodeId s = 0; s < router_count_; ++s) {
    const auto dist = bfs(topology, s, usable, &parent);
    for (std::size_t i = 0; i < destinations_.size(); ++i) {
      const std::size_t idx = s * destinations_.size() + i;
      if (dist[destinations_[i]] == kUnreachable) {
        reachable_[idx] = 0;  // keep the stale route; distance() stays defined
        continue;
      }
      reachable_[idx] = 1;
      if (in_tree(*routes_[idx])) {
        continue;  // unchanged: the pair keeps its route object
      }
      if (in_tree(intact_[idx])) {
        routes_[idx] = &intact_[idx];
        continue;
      }
      const auto [first, last] = detours_.equal_range(idx);
      auto held = std::find_if(first, last,
                               [&](const auto& entry) { return in_tree(entry.second); });
      if (held == last) {
        held = detours_.emplace_hint(last, idx, unwind(topology, s, destinations_[i], parent));
      }
      routes_[idx] = &held->second;
    }
  }
}

bool RouteTable::has_route(NodeId source, std::size_t index) const {
  util::require(source < router_count_, "source out of range");
  util::require(index < destinations_.size(), "destination index out of range");
  return reachable_[source * destinations_.size() + index] != 0;
}

const Path& RouteTable::route(NodeId source, std::size_t index) const {
  util::require(source < router_count_, "source out of range");
  util::require(index < destinations_.size(), "destination index out of range");
  return *routes_[source * destinations_.size() + index];
}

std::size_t RouteTable::distance(NodeId source, std::size_t index) const {
  return route(source, index).hops();
}

std::size_t RouteTable::shortest_destination(NodeId source) const {
  std::size_t best = 0;
  std::size_t best_hops = kUnreachable;
  for (std::size_t i = 0; i < destinations_.size(); ++i) {
    if (!has_route(source, i)) {
      continue;
    }
    const std::size_t hops = distance(source, i);
    if (hops < best_hops) {
      best = i;
      best_hops = hops;
    }
  }
  return best;
}

}  // namespace anyqos::net
