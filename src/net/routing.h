// Routing algorithms over Topology.
//
// The paper assumes fixed per-(source, member) routes "obtained via the
// existing routing protocols" (Section 3) — we compute them with hop-count
// shortest paths and cache them in a RouteTable. The GDI baseline needs a
// feasibility search over *all* paths, provided by shortest_feasible_path.
// Widest-path and Yen's k-shortest-paths round out the substrate (used by
// probes and by ablations over alternative fixed-route sets).
#pragma once

#include <map>
#include <optional>
#include <span>
#include <vector>

#include "src/net/bandwidth.h"
#include "src/net/topology.h"

namespace anyqos::net {

/// Hop-count shortest path from `source` to `destination` using BFS.
/// Ties are broken deterministically: nodes are discovered following link-id
/// order, so the returned path is stable across runs.
/// Returns nullopt when no path exists.
std::optional<Path> shortest_path(const Topology& topology, NodeId source, NodeId destination);

/// Hop counts from `source` to every node (kUnreachable when disconnected).
inline constexpr std::size_t kUnreachable = static_cast<std::size_t>(-1);
std::vector<std::size_t> hop_distances(const Topology& topology, NodeId source);

/// Shortest path restricted to links with at least `bandwidth` available.
/// This is the GDI oracle's search: a flow is admissible iff such a path
/// exists to some group member. Returns nullopt when no feasible path exists.
std::optional<Path> shortest_feasible_path(const Topology& topology, const BandwidthLedger& ledger,
                                           NodeId source, NodeId destination, Bandwidth bandwidth);

/// Among `destinations`, returns the feasible path with the fewest hops
/// (ties broken toward the destination listed first). Nullopt when no
/// destination is reachable with `bandwidth` available on every link.
std::optional<Path> shortest_feasible_path_to_any(const Topology& topology,
                                                  const BandwidthLedger& ledger, NodeId source,
                                                  std::span<const NodeId> destinations,
                                                  Bandwidth bandwidth);

/// Yen's algorithm: up to `k` loopless shortest paths in non-decreasing hop
/// order. Deterministic. Used by route-set ablations.
std::vector<Path> k_shortest_paths(const Topology& topology, NodeId source, NodeId destination,
                                   std::size_t k);

/// Precomputed fixed routes from every node to a set of destinations,
/// mirroring the paper's fixed source->member route assumption. Building it
/// for n routers and K destinations costs n BFS (one shortest-path tree per
/// router) and n*K unwinds of a member's parent chain in that tree.
///
/// A route the table hands out never changes and lives as long as the table,
/// so an admitted flow holds a pointer to its route instead of a copy.
/// recompute() repoints a pair at another route; it does not rewrite one.
/// Moving the table keeps every handed-out route where it is; copying would
/// not, so the table is move-only.
class RouteTable {
 public:
  /// Computes routes from all routers to each of `destinations`: one BFS
  /// tree per router with every link up, so each route equals
  /// shortest_path(source, member) and an all-up recompute() changes nothing.
  /// Throws std::invalid_argument if `destinations` is empty, names a node
  /// that is not a router, or any pair is disconnected (the message names the
  /// first such pair in (router, member) order).
  RouteTable(const Topology& topology, std::vector<NodeId> destinations);

  RouteTable(RouteTable&&) = default;
  RouteTable& operator=(RouteTable&&) = default;
  RouteTable(const RouteTable&) = delete;
  RouteTable& operator=(const RouteTable&) = delete;

  /// The current route from `source` to destinations()[index]. The object
  /// stays valid and unchanged for the table's lifetime, even after a later
  /// recompute() gives the pair another route.
  [[nodiscard]] const Path& route(NodeId source, std::size_t index) const;
  /// Hop count of route(source, index) — the paper's D_i.
  [[nodiscard]] std::size_t distance(NodeId source, std::size_t index) const;
  [[nodiscard]] const std::vector<NodeId>& destinations() const { return destinations_; }
  [[nodiscard]] std::size_t destination_count() const { return destinations_.size(); }

  /// Index of the destination with the shortest fixed route from `source`
  /// (ties toward the lower index) — the SP baseline's choice. Destinations
  /// left unreachable by the last recompute() are skipped; falls back to
  /// index 0 when nothing is reachable.
  [[nodiscard]] std::size_t shortest_destination(NodeId source) const;

  /// Recomputes every route over the surviving links: `duplex_up[link / 2]`
  /// says whether that duplex link is operational. A pair whose shortest
  /// path changed is pointed at a route object holding the new path: its
  /// original route when the intact path is back, else a route it held
  /// before, else a new one kept for the table's lifetime — so repeated
  /// fail/repair cycles add no routes. Pairs the shrunk topology
  /// disconnects keep their previous (stale) route — so distance() stays
  /// defined for selectors — but has_route() turns false for them until a
  /// later recompute reconnects the pair. Deterministic: same BFS tie-break
  /// as the constructor, so recomputing with all links up restores every
  /// pair's original route object.
  void recompute(const Topology& topology, const std::vector<char>& duplex_up);

  /// True when the last (re)computation found a live route for the pair.
  /// Always true before the first recompute(): the constructor requires a
  /// connected topology.
  [[nodiscard]] bool has_route(NodeId source, std::size_t index) const;

 private:
  std::vector<NodeId> destinations_;
  std::size_t router_count_;
  std::vector<Path> intact_;  // router_count x destinations, row-major; every link up
  std::multimap<std::size_t, Path> detours_;  // pair index -> its other routes so far
  std::vector<const Path*> routes_;  // parallel to intact_: each pair's current route
  std::vector<char> reachable_;      // parallel to intact_; 0 after a partition
};

}  // namespace anyqos::net
