// Distributed route computation: link-state protocol simulation.
//
// The OSPF-flavoured counterpart to DistanceVectorProtocol: every router
// originates link-state advertisements (LSAs) for its attached links,
// flooding propagates them one hop per synchronous round, and each router
// runs shortest-path-first over its own link-state database (LSDB). After
// flooding completes, every router's view equals the real topology and the
// computed routes coincide with the centrally computed ones — asserted by
// tests. Link failures bump the LSA sequence number and re-flood, so
// reconvergence takes O(diameter) rounds instead of distance-vector's
// slower count-down; the protocol is the test oracle for
// net::flooding_delay_s.
#pragma once

#include <cstdint>
#include <optional>
#include <vector>

#include "src/net/routing.h"
#include "src/net/topology.h"

namespace anyqos::net {

/// One router's knowledge of one duplex link.
struct LinkStateRecord {
  std::uint32_t sequence = 0;  ///< 0 = never heard of the link
  bool up = false;
};

/// Simulates synchronous LSA flooding plus per-router SPF.
class LinkStateProtocol {
 public:
  /// `topology` must outlive the protocol. Routers start knowing only their
  /// own attached links.
  explicit LinkStateProtocol(const Topology& topology);

  /// One synchronous flooding round: every router forwards the freshest LSAs
  /// it holds to its neighbours. Returns true when any LSDB changed.
  bool step();

  /// Floods until a fixed point (or `max_rounds`); returns rounds executed.
  std::size_t converge(std::size_t max_rounds = 1'000);
  [[nodiscard]] bool converged() const { return converged_; }

  /// True when `router`'s LSDB holds the current LSA of every duplex link.
  [[nodiscard]] bool database_complete(NodeId router) const;

  /// Hop-count shortest path computed on `router`'s own LSDB (SPF). Returns
  /// nullopt when the destination is unreachable in that view. With complete
  /// databases the result equals net::shortest_path on the real topology.
  [[nodiscard]] std::optional<Path> spf_path(NodeId router, NodeId destination) const;

  /// Takes a duplex link down: both endpoints originate a higher-sequence
  /// "down" LSA. converge() propagates it.
  void fail_duplex_link(LinkId link);

  /// Brings a failed duplex link back with a fresh "up" LSA.
  void restore_duplex_link(LinkId link);

  /// The record `router` holds for the duplex link containing `link`.
  [[nodiscard]] const LinkStateRecord& record(NodeId router, LinkId link) const;

 private:
  /// Duplex index of a directed link (links come in forward/backward pairs).
  [[nodiscard]] std::size_t duplex_index(LinkId link) const { return link / 2; }
  LinkStateRecord& record_mut(NodeId router, std::size_t duplex);
  void originate(LinkId link, bool up);

  const Topology* topology_;
  std::size_t duplex_count_;
  std::vector<LinkStateRecord> lsdb_;  // router-major [router][duplex link]
  std::vector<std::uint32_t> current_sequence_;  // per duplex link
  std::vector<char> link_up_;                    // ground truth per duplex link
  bool converged_ = false;
};

}  // namespace anyqos::net
