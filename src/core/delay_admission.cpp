#include "src/core/delay_admission.h"

#include <algorithm>
#include <vector>

#include "src/util/require.h"

namespace anyqos::core {

DelayAdmissionController::DelayAdmissionController(const AnycastGroup& group,
                                                   const net::RouteTable& routes,
                                                   signaling::ReservationProtocol& rsvp,
                                                   SchedulerModel scheduler, double max_delay_s,
                                                   std::size_t max_tries)
    : group_(&group),
      routes_(&routes),
      rsvp_(&rsvp),
      scheduler_(scheduler),
      max_delay_s_(max_delay_s),
      retrial_(max_tries) {
  util::require(max_delay_s > 0.0, "deadline must be positive");
  util::require(group.size() == routes.destination_count(),
                "route table must cover exactly the group members");
}

std::string DelayAdmissionController::label() const {
  std::string label = "<DELAY,";
  label += std::to_string(retrial_.max_attempts());
  label += '>';
  return label;
}

std::optional<net::Bandwidth> DelayAdmissionController::required_rate(
    net::NodeId source, net::Bandwidth floor_bps, std::size_t index) const {
  const net::Path& route = routes_->route(source, index);
  // A co-located member (empty route) has no queueing path; only the rate
  // floor applies.
  const std::size_t hops = std::max<std::size_t>(route.hops(), 1);
  return effective_bandwidth(QosRequirement{floor_bps, max_delay_s_}, hops, scheduler_);
}

AdmissionDecision DelayAdmissionController::admit(double /*now*/, const FlowRequest& request,
                                                  des::RandomStream& rng) {
  AdmissionDecision decision;
  const std::uint64_t messages_before = rsvp_->counter().total();

  // Per-member required rates, weighted 1/rate (cheaper reservation =
  // heavier weight); infeasible and tried members weigh zero.
  const std::size_t k = group_->size();
  std::vector<std::optional<net::Bandwidth>> rates(k);
  std::vector<double> weights(k, 0.0);
  for (std::size_t i = 0; i < k; ++i) {
    rates[i] = required_rate(request.source, request.bandwidth_bps, i);
    if (rates[i].has_value()) {
      weights[i] = 1.0 / *rates[i];
    }
  }
  while (true) {
    double total = 0.0;
    for (const double w : weights) {
      total += w;
    }
    if (total <= 0.0) {
      break;  // nothing feasible remains
    }
    const std::size_t index = rng.weighted_index(weights);
    weights[index] = 0.0;
    ++decision.attempts;
    const net::Path& route = routes_->route(request.source, index);
    const signaling::ReservationResult result = rsvp_->reserve(route, *rates[index]);
    if (result.admitted) {
      decision.admitted = true;
      decision.destination_index = index;
      decision.route = &route;
      decision.reserved_bps = *rates[index];
      break;
    }
    if (!retrial_.keep_going(decision.attempts)) {
      break;
    }
  }
  decision.messages = rsvp_->counter().total() - messages_before;
  return decision;
}

void DelayAdmissionController::release(const net::Path& route, net::Bandwidth bandwidth_bps) {
  rsvp_->teardown(route, bandwidth_bps);
}

}  // namespace anyqos::core
