#include "src/core/multipath_admission.h"

#include <algorithm>
#include <utility>
#include <vector>

#include "src/util/require.h"

namespace anyqos::core {

MultiPathAdmissionController::MultiPathAdmissionController(
    const net::Topology& topology, const AnycastGroup& group, std::size_t paths_per_member,
    signaling::ReservationProtocol& rsvp, std::size_t max_tries)
    : routes_(topology, group.members(), paths_per_member),
      rsvp_(&rsvp),
      retrial_(max_tries) {}

std::string MultiPathAdmissionController::label() const {
  std::string label = "<MP";
  label += std::to_string(routes_.max_paths_per_pair());
  label += ',';
  label += std::to_string(retrial_.max_attempts());
  label += '>';
  return label;
}

AdmissionDecision MultiPathAdmissionController::admit(double /*now*/, const FlowRequest& request,
                                                      des::RandomStream& rng) {
  util::require(request.bandwidth_bps > 0.0, "flow bandwidth must be positive");
  // The source's (member, rank) alternatives, weighted 1/hops.
  std::vector<std::pair<std::size_t, std::size_t>> alternatives;
  std::vector<double> weights;
  for (std::size_t index = 0; index < routes_.destination_count(); ++index) {
    for (std::size_t rank = 0; rank < routes_.path_count(request.source, index); ++rank) {
      alternatives.emplace_back(index, rank);
      weights.push_back(1.0 / static_cast<double>(std::max<std::size_t>(
                                  routes_.path(request.source, index, rank).hops(), 1)));
    }
  }
  AdmissionDecision decision;
  const std::uint64_t messages_before = rsvp_->counter().total();
  while (true) {
    double total = 0.0;
    for (const double w : weights) {
      total += w;
    }
    if (total <= 0.0) {
      break;  // every alternative tried
    }
    const std::size_t pick = rng.weighted_index(weights);
    weights[pick] = 0.0;  // without replacement
    ++decision.attempts;
    const auto [index, rank] = alternatives[pick];
    const net::Path& route = routes_.path(request.source, index, rank);
    const signaling::ReservationResult result = rsvp_->reserve(route, request.bandwidth_bps);
    if (result.admitted) {
      decision.admitted = true;
      decision.destination_index = index;
      decision.route = &route;
      decision.reserved_bps = request.bandwidth_bps;
      break;
    }
    if (!retrial_.keep_going(decision.attempts)) {
      break;
    }
  }
  decision.messages = rsvp_->counter().total() - messages_before;
  return decision;
}

void MultiPathAdmissionController::release(const net::Path& route,
                                           net::Bandwidth bandwidth_bps) {
  rsvp_->teardown(route, bandwidth_bps);
}

}  // namespace anyqos::core
