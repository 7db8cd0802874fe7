#include "src/core/admission.h"

#include <algorithm>
#include <memory>
#include <span>

#include "src/util/require.h"

namespace anyqos::core {

AdmissionController::AdmissionController(net::NodeId source, const AnycastGroup& group,
                                         const net::RouteTable& routes,
                                         signaling::ReservationProtocol& rsvp,
                                         std::unique_ptr<DestinationSelector> selector,
                                         std::unique_ptr<RetrialPolicy> retrial)
    : source_(source),
      group_(&group),
      routes_(&routes),
      rsvp_(&rsvp),
      selector_(std::move(selector)),
      retrial_(std::move(retrial)),
      tried_(std::make_unique<bool[]>(group.size())) {
  util::require(selector_ != nullptr, "admission controller needs a selector");
  util::require(retrial_ != nullptr, "admission controller needs a retrial policy");
  util::require(group.size() == routes.destination_count(),
                "route table must cover exactly the group members");
}

AdmissionDecision AdmissionController::admit(const FlowRequest& request, des::RandomStream& rng) {
  util::require(request.source == source_, "request routed to the wrong AC-router");
  util::require(request.bandwidth_bps > 0.0, "flow bandwidth must be positive");

  AdmissionDecision decision;
  if (observer_ != nullptr) {
    observer_->on_request_begin(source_);
  }
  // Tracing is all-or-nothing per request: resolve the sink check once so
  // the loop below spends nothing (no snapshots, no allocation) untraced.
  obs::DecisionTracer* const tracer =
      (tracer_ != nullptr && tracer_->active()) ? tracer_ : nullptr;
  if (tracer != nullptr) {
    tracer->begin_request(request.request_id, source_, request.bandwidth_bps,
                          selector_->name(), retrial_->max_attempts(), group_->size());
  }
  // Message accounting by counter delta: reservation walks AND any probes a
  // selector issues (WD/D+B shares the counter via its ProbeService) are
  // attributed to this decision — the paper's overhead comparison hinges on
  // WD/D+B's probe traffic being visible.
  const std::uint64_t messages_before = rsvp_->counter().total();
  // Down members (churn extension) enter the loop pre-marked as tried: the
  // selector never picks them and its masking machinery redistributes their
  // weight over the live members, exactly as it does for retried ones. When
  // every member is down, select() returns nullopt immediately and the
  // request is rejected with zero attempts.
  // A circuit-broken member (gate veto) is excluded the same way, so an
  // Open breaker zeroes the member's effective selection weight and the
  // remaining members absorb it through renormalization. So is a member the
  // last routing reconvergence left unreachable (node-failure extension):
  // the AC-router's table has no live route, so it never signals toward the
  // partition. has_route() is always true under the paper's static routes.
  bool* const tried = tried_.get();
  for (std::size_t i = 0; i < group_->size(); ++i) {
    tried[i] = !group_->is_up(i) || !routes_->has_route(source_, i) ||
               (gate_ != nullptr && !gate_->allow_member(i));
  }
  const std::span<const bool> tried_view(tried, group_->size());
  // Figure 1: REPEAT { select; reserve; retry-control } UNTIL rejected.
  while (true) {
    const auto index = selector_->select(tried_view, rng);
    if (!index.has_value()) {
      break;  // every member tried; exhausted before the retry budget
    }
    tried[*index] = true;
    ++decision.attempts;
    if (observer_ != nullptr) {
      observer_->on_attempt(source_, *index);
    }
    // Snapshot the weight vector the selection just drew from, before
    // report() lets the selector learn from the outcome.
    if (tracer != nullptr) {
      selector_->fill_weights(weight_snapshot_);
    }
    const net::Path& route = routes_->route(source_, *index);
    const signaling::ReservationResult result = rsvp_->reserve(route, request.bandwidth_bps);
    selector_->report(*index, result.admitted);
    if (gate_ != nullptr) {
      gate_->on_member_result(*index, result);
    }
    if (tracer != nullptr) {
      const std::size_t budget = retrial_->max_attempts();
      tracer->record_attempt(*index, group_->member(*index), weight_snapshot_,
                             route.hops(), result.bottleneck_bps, result.admitted,
                             result.blocking_link, result.messages, result.retransmits,
                             budget > decision.attempts ? budget - decision.attempts : 0);
    }
    if (result.admitted) {
      decision.admitted = true;
      decision.destination_index = *index;
      decision.route = &route;
      decision.reserved_bps = request.bandwidth_bps;
      break;
    }
    if (!retrial_->keep_going(decision.attempts)) {
      break;
    }
  }
  decision.messages = rsvp_->counter().total() - messages_before;
  if (tracer != nullptr) {
    tracer->end_request(decision.admitted, decision.destination_index, decision.messages);
  }
  if (observer_ != nullptr) {
    observer_->on_decision(source_, decision, retrial_->max_attempts(), group_->size());
  }
  return decision;
}

void AdmissionController::release(const AdmissionDecision& decision, net::Bandwidth bandwidth_bps) {
  util::require(decision.admitted, "only admitted flows can be released");
  rsvp_->teardown(*decision.route, bandwidth_bps);
}

GlobalAdmissionOracle::GlobalAdmissionOracle(const net::Topology& topology,
                                             net::BandwidthLedger& ledger,
                                             const AnycastGroup& group)
    : topology_(&topology), ledger_(&ledger), group_(&group) {}

AdmissionDecision GlobalAdmissionOracle::admit(double /*now*/, const FlowRequest& request,
                                                des::RandomStream& /*rng*/) {
  util::require(request.bandwidth_bps > 0.0, "flow bandwidth must be positive");
  AdmissionDecision decision;
  decision.attempts = 1;  // the oracle searches once, globally
  auto path = net::shortest_feasible_path_to_any(*topology_, *ledger_, request.source,
                                                 group_->members(), request.bandwidth_bps);
  if (!path.has_value()) {
    return decision;
  }
  const net::Path& route = *paths_.insert(std::move(*path)).first;
  const bool ok = ledger_->reserve(route, request.bandwidth_bps);
  util::ensure(ok, "feasible path must admit the reservation");
  decision.admitted = true;
  decision.route = &route;
  decision.reserved_bps = request.bandwidth_bps;
  const auto member = std::find(group_->members().begin(), group_->members().end(),
                                route.destination);
  util::ensure(member != group_->members().end(), "oracle path must end at a group member");
  decision.destination_index =
      static_cast<std::size_t>(member - group_->members().begin());
  return decision;
}

void GlobalAdmissionOracle::release(const net::Path& route, net::Bandwidth bandwidth_bps) {
  ledger_->release(route, bandwidth_bps);
}

}  // namespace anyqos::core
