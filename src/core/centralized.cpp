#include "src/core/centralized.h"

#include <algorithm>

#include "src/util/require.h"

namespace anyqos::core {

CentralizedController::CentralizedController(const net::Topology& topology,
                                             net::BandwidthLedger& ledger,
                                             const AnycastGroup& group,
                                             const net::RouteTable& routes,
                                             signaling::ReservationProtocol& rsvp,
                                             net::NodeId controller_node,
                                             double decisions_per_second)
    : ledger_(&ledger),
      group_(&group),
      routes_(&routes),
      rsvp_(&rsvp),
      controller_node_(controller_node),
      service_time_s_(1.0 / decisions_per_second) {
  util::require(controller_node < topology.router_count(), "controller node out of range");
  util::require(decisions_per_second > 0.0, "decision rate must be positive");
  util::require(group.size() == routes.destination_count(),
                "route table must cover exactly the group members");
  const auto distances = net::hop_distances(topology, controller_node);
  control_hops_.assign(distances.begin(), distances.end());
  for (const std::size_t d : control_hops_) {
    util::require(d != net::kUnreachable, "controller cannot reach every router");
  }
}

std::size_t CentralizedController::control_distance(net::NodeId source) const {
  util::require(source < control_hops_.size(), "source out of range");
  return control_hops_[source];
}

std::string CentralizedController::label() const {
  std::string label = "CTRL@";  // append form: GCC 12 -Wrestrict, PR 105329
  label += std::to_string(controller_node_);
  return label;
}

AdmissionDecision CentralizedController::admit(double now, const FlowRequest& request,
                                               des::RandomStream& /*rng*/) {
  const net::NodeId source = request.source;
  const net::Bandwidth bandwidth_bps = request.bandwidth_bps;
  util::require(bandwidth_bps > 0.0, "flow bandwidth must be positive");
  AdmissionDecision decision;
  decision.attempts = 1;  // the agency decides in one shot

  // The agency is a single decision server: requests queue FCFS.
  const double start = std::max(now, busy_until_);
  busy_until_ = start + service_time_s_;
  decision.decision_delay_s = busy_until_ - now;

  // Request to the agency and verdict back.
  decision.messages += 2 * control_hops_[source];

  // Global view over the fixed routes: feasible, fewest hops, then widest.
  std::optional<std::size_t> best;
  for (std::size_t i = 0; i < group_->size(); ++i) {
    const net::Path& route = routes_->route(source, i);
    if (!ledger_->can_reserve(route, bandwidth_bps)) {
      continue;
    }
    if (!best.has_value()) {
      best = i;
      continue;
    }
    const net::Path& incumbent = routes_->route(source, *best);
    if (route.hops() < incumbent.hops() ||
        (route.hops() == incumbent.hops() &&
         ledger_->bottleneck(route) > ledger_->bottleneck(incumbent))) {
      best = i;
    }
  }
  if (!best.has_value()) {
    return decision;  // nothing feasible among the fixed routes
  }
  const net::Path& route = routes_->route(source, *best);
  const signaling::ReservationResult result = rsvp_->reserve(route, bandwidth_bps);
  util::ensure(result.admitted, "agency-selected route must admit the reservation");
  decision.messages += result.messages;
  decision.admitted = true;
  decision.destination_index = *best;
  decision.route = &route;
  decision.reserved_bps = bandwidth_bps;
  return decision;
}

void CentralizedController::release(const net::Path& route, net::Bandwidth bandwidth_bps) {
  rsvp_->teardown(route, bandwidth_bps);
}

}  // namespace anyqos::core
