// Routing reconvergence: how long the routing plane takes to react to a
// topology change.
//
// The paper assumes routes "obtained via the existing routing protocols" and
// never changes them; real routing protocols do change them, after a
// convergence delay during which signaling walks stale routes and fails with
// PATH_ERR. The model is only that delay (sim::SimulationConfig::
// reconvergence_delay_s); the route recomputation itself is
// RouteTable::recompute, driven by sim::Simulation, which restarts the delay
// on each change (a burst of failures converges one delay after the *last*
// one, matching how flooding storms coalesce). A scenario names the delay
// "instant" (zero), "fixed" (an operator-configured delay) or "flooding"
// (below).
#pragma once

#include "src/net/topology.h"

namespace anyqos::net {

/// O(diameter) delay derived from the link-state flooding model:
/// (diameter(topology) + 1) * per_round_s, for a connected topology and a
/// positive per-round delay. After a single duplex-link failure or repair,
/// the LSA reaches the farthest router within the intact diameter of
/// synchronous flooding rounds, plus one round for the local SPF recompute
/// — LinkStateProtocol::converge stays within diameter + 1 rounds (tested).
/// The bound covers single-link changes only: a router crash floods each of
/// its links' LSAs from the surviving end alone and can take longer.
[[nodiscard]] double flooding_delay_s(const Topology& topology, double per_round_s);

}  // namespace anyqos::net
