// Centralized admission control baseline (paper Section 1).
//
// The paper motivates DAC by contrast with a *centralized* agency that makes
// every admission decision: simple and well-informed, but a scalability
// bottleneck and a single point of failure. This controller realizes that
// alternative so the trade-off can be measured instead of argued:
//
//  - Decision quality: the agency sees the whole ledger, so among the K
//    *fixed* routes of a request it always picks an admissible one when one
//    exists (best = feasible with the fewest hops, ties to the widest
//    bottleneck). It does not invent new paths — that is GDI's privilege —
//    so CTRL sits between WD/D+B and GDI in admission probability.
//  - Cost: every request travels to the agency and back
//    (2 x hops(source, controller) control messages), and the agency's
//    decision rate is finite; requests beyond `decisions_per_second` queue
//    and suffer latency (reported, not dropped).
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "src/core/admission.h"
#include "src/core/group.h"
#include "src/net/routing.h"
#include "src/signaling/rsvp.h"

namespace anyqos::core {

/// The central agency. One instance serves the whole network.
class CentralizedController final : public AdmissionPolicy {
 public:
  /// `controller_node` hosts the agency; `decisions_per_second` bounds its
  /// throughput (the scalability bottleneck made explicit). References must
  /// outlive the controller.
  CentralizedController(const net::Topology& topology, net::BandwidthLedger& ledger,
                        const AnycastGroup& group, const net::RouteTable& routes,
                        signaling::ReservationProtocol& rsvp, net::NodeId controller_node,
                        double decisions_per_second);

  /// Decides (and reserves) for `request` arriving at simulated time `now`,
  /// in one shot (attempts = 1). The decision carries the agency's queueing
  /// + service delay and, in its messages, the request + verdict round trip
  /// to the agency plus the reservation walk. Draws nothing from `rng`.
  [[nodiscard]] AdmissionDecision admit(double now, const FlowRequest& request,
                                        des::RandomStream& rng) override;

  /// Tears an admitted flow down via RSVP.
  void release(const net::Path& route, net::Bandwidth bandwidth_bps) override;

  /// "CTRL@<controller node>".
  [[nodiscard]] std::string label() const override;

  /// Distance from `source` to the agency (message cost per request).
  [[nodiscard]] std::size_t control_distance(net::NodeId source) const;

 private:
  net::BandwidthLedger* ledger_;
  const AnycastGroup* group_;
  const net::RouteTable* routes_;
  signaling::ReservationProtocol* rsvp_;
  net::NodeId controller_node_;
  double service_time_s_;
  double busy_until_ = 0.0;  // M/D/1-style single decision server
  std::vector<std::size_t> control_hops_;  // per source
};

}  // namespace anyqos::core
