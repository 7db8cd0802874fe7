// DAC for delay-constrained anycast flows (Section 6 realized end to end).
//
// The paper notes that with rate-based schedulers an end-to-end delay bound
// maps to a bandwidth requirement (src/core/qos.h). For anycast this mapping
// is per-member: the required rate grows with the route's hop count, so the
// destination choice changes how much bandwidth must be reserved. This
// controller runs the Figure-1 loop with that coupling:
//
//   - members whose route cannot meet the deadline at any rate are excluded;
//   - the remaining members are drawn with weight proportional to
//     1 / required_rate_i (cheaper members preferred — the delay-aware
//     analogue of eq. (4)'s inverse-distance discrimination);
//   - reservation uses the member-specific effective bandwidth, and the
//     decision records it so teardown releases exactly what was reserved.
#pragma once

#include <optional>
#include <string>

#include "src/core/admission.h"
#include "src/core/group.h"
#include "src/core/qos.h"
#include "src/core/retrial.h"
#include "src/des/random.h"
#include "src/net/routing.h"
#include "src/signaling/rsvp.h"

namespace anyqos::core {

/// Delay-bounded DAC for one anycast group: every flow carries the same
/// end-to-end deadline, and a request's bandwidth is its rate floor.
class DelayAdmissionController final : public AdmissionPolicy {
 public:
  /// Tries at most `max_tries` members per request. Referenced objects must
  /// outlive the controller.
  DelayAdmissionController(const AnycastGroup& group, const net::RouteTable& routes,
                           signaling::ReservationProtocol& rsvp, SchedulerModel scheduler,
                           double max_delay_s, std::size_t max_tries);

  /// Runs the DAC loop; on admission the member-specific effective bandwidth
  /// is reserved along the returned route and recorded in `reserved_bps`.
  [[nodiscard]] AdmissionDecision admit(double now, const FlowRequest& request,
                                        des::RandomStream& rng) override;

  /// Tears an admitted flow down via RSVP; pass the decision's reserved_bps.
  void release(const net::Path& route, net::Bandwidth bandwidth_bps) override;

  /// "<DELAY,R>".
  [[nodiscard]] std::string label() const override;

  /// The effective rate member `index` would need from `source` at rate
  /// floor `floor_bps`, or nullopt when its route cannot meet the deadline.
  /// Exposed for tests and planning.
  [[nodiscard]] std::optional<net::Bandwidth> required_rate(net::NodeId source,
                                                            net::Bandwidth floor_bps,
                                                            std::size_t index) const;

 private:
  const AnycastGroup* group_;
  const net::RouteTable* routes_;
  signaling::ReservationProtocol* rsvp_;
  SchedulerModel scheduler_;
  double max_delay_s_;
  CounterRetrialPolicy retrial_;
};

}  // namespace anyqos::core
