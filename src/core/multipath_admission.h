// DAC over multiple fixed paths per member (extension; see net/multipath.h).
//
// The selection universe becomes (member, path-rank) pairs. Weights follow
// the paper's inverse-distance heuristic (eq. 4) applied per alternative:
// W ∝ 1/hops, renormalized over untried alternatives; retrial control bounds
// the total attempts exactly as in Figure 1. With k = 1 this degenerates to
// <WD/D,R> on the standard route table; with larger k it closes part of the
// gap to GDI while remaining a fixed-route, local-information procedure.
#pragma once

#include <cstdint>
#include <string>

#include "src/core/admission.h"
#include "src/core/group.h"
#include "src/core/retrial.h"
#include "src/des/random.h"
#include "src/net/multipath.h"
#include "src/signaling/rsvp.h"

namespace anyqos::core {

/// Multipath DAC for one anycast group: each AC-router draws from its own
/// (member, path) alternatives.
class MultiPathAdmissionController final : public AdmissionPolicy {
 public:
  /// Builds the group's `paths_per_member`-shortest route table over
  /// `topology` and tries at most `max_tries` alternatives per request.
  /// `rsvp` must outlive the controller.
  MultiPathAdmissionController(const net::Topology& topology, const AnycastGroup& group,
                               std::size_t paths_per_member,
                               signaling::ReservationProtocol& rsvp,
                               std::size_t max_tries);

  /// Runs the DAC loop over the source's (member, path) alternatives.
  [[nodiscard]] AdmissionDecision admit(double now, const FlowRequest& request,
                                        des::RandomStream& rng) override;

  /// Tears an admitted flow down via RSVP.
  void release(const net::Path& route, net::Bandwidth bandwidth_bps) override;

  /// "<MP<k>,R>", e.g. "<MP3,4>".
  [[nodiscard]] std::string label() const override;

  /// Number of selection alternatives from `source`.
  [[nodiscard]] std::size_t alternatives(net::NodeId source) const {
    return routes_.alternatives(source);
  }

 private:
  net::MultiPathRouteTable routes_;
  signaling::ReservationProtocol* rsvp_;
  CounterRetrialPolicy retrial_;
};

}  // namespace anyqos::core
