// The Distributed Admission Control procedure (paper Figure 1), the
// AdmissionPolicy seam every other admission procedure plugs into, and the
// GDI oracle baseline (Section 5.1).
#pragma once

#include <cstdint>
#include <memory>
#include <optional>
#include <set>
#include <string>
#include <vector>

#include "src/core/group.h"
#include "src/core/retrial.h"
#include "src/core/selector.h"
#include "src/des/random.h"
#include "src/net/routing.h"
#include "src/obs/span.h"
#include "src/signaling/rsvp.h"

namespace anyqos::core {

/// A request to establish one anycast flow with a bandwidth QoS requirement.
struct FlowRequest {
  net::NodeId source = net::kInvalidNode;  ///< AC-router receiving the request
  net::Bandwidth bandwidth_bps = 0.0;      ///< required bandwidth (paper: 64 kbit/s)
  /// Caller-assigned correlation id propagated into decision spans and flow
  /// traces (the simulation stamps its arrival sequence number; 0 = unset).
  std::uint64_t request_id = 0;
};

/// Outcome of running an admission procedure for one request.
struct AdmissionDecision {
  bool admitted = false;
  /// Group-member index the flow was pinned to (set iff admitted).
  std::optional<std::size_t> destination_index;
  /// The reserved route (set iff admitted); release it at flow departure.
  /// It points into the policy's route table (GDI: the oracle's own path
  /// store), which outlives every flow the policy admits.
  const net::Path* route = nullptr;
  /// Bandwidth reserved along `route` (set iff admitted): the request's
  /// demand, or a delay-bounded flow's member-specific rate.
  net::Bandwidth reserved_bps = 0.0;
  /// Destinations tried, 1..R ("number of retrials" in the paper's metric).
  std::size_t attempts = 0;
  /// Signaling messages this decision generated.
  std::uint64_t messages = 0;
  /// Queueing + service delay at a central agency, seconds (0 when local).
  double decision_delay_s = 0.0;
};

/// One admission procedure for one anycast group. sim::Simulation runs a
/// policy in place of its built-in per-source DAC controllers; GDI, the
/// central agency, delay-bounded and multipath DAC implement it.
class AdmissionPolicy {
 public:
  virtual ~AdmissionPolicy() = default;

  /// Decides `request`, arriving at simulated time `now`, drawing from `rng`.
  /// An admission holds `reserved_bps` along the route until release();
  /// discarding the result leaks it, hence [[nodiscard]].
  [[nodiscard]] virtual AdmissionDecision admit(double now, const FlowRequest& request,
                                                des::RandomStream& rng) = 0;

  /// Releases an admitted flow's `bandwidth_bps` along `route`.
  virtual void release(const net::Path& route, net::Bandwidth bandwidth_bps) = 0;

  /// The system's label in results, e.g. "GDI" or "CTRL@8".
  [[nodiscard]] virtual std::string label() const = 0;
};

/// Observes the DAC loop attempt by attempt. Implemented by instrumentation
/// such as audit::InvariantAuditor to verify retrial-control invariants
/// (no destination tried twice per request, attempts <= R).
class AdmissionObserver {
 public:
  virtual ~AdmissionObserver() = default;

  /// A new request entered the Figure 1 loop at AC-router `source`.
  virtual void on_request_begin(net::NodeId source) = 0;
  /// The loop is about to try group member `member_index`.
  virtual void on_attempt(net::NodeId source, std::size_t member_index) = 0;
  /// The loop finished; `max_attempts` is the retrial policy's bound R and
  /// `group_size` the number of members K.
  virtual void on_decision(net::NodeId source, const AdmissionDecision& decision,
                           std::size_t max_attempts, std::size_t group_size) = 0;
};

/// Vetoes individual group members before the selector sees them and hears
/// every attempt's reservation outcome. Implemented by the overload
/// governor's per-member circuit breakers: a vetoed member enters the DAC
/// loop pre-marked as tried, so the selector's masking machinery zeroes its
/// weight and renormalizes over the remaining members — the same mechanism
/// that excludes churned-down members. Consulted only for members that are
/// up (down members are excluded before the gate is asked).
class MemberGate {
 public:
  virtual ~MemberGate() = default;

  /// False excludes `member_index` from this request's selection.
  [[nodiscard]] virtual bool allow_member(std::size_t member_index) = 0;

  /// The reservation outcome of one attempt against `member_index` (called
  /// once per attempt, after the selector's report()).
  virtual void on_member_result(std::size_t member_index,
                                const signaling::ReservationResult& result) = 0;
};

/// One AC-router's admission controller for one anycast group: owns the
/// destination selector state (weights, history) and executes Figure 1's
/// select -> reserve -> retry loop.
class AdmissionController {
 public:
  /// All referenced objects must outlive the controller. `selector` and
  /// `retrial` must be non-null.
  AdmissionController(net::NodeId source, const AnycastGroup& group,
                      const net::RouteTable& routes, signaling::ReservationProtocol& rsvp,
                      std::unique_ptr<DestinationSelector> selector,
                      std::unique_ptr<RetrialPolicy> retrial);

  /// Runs the DAC procedure for `request` (request.source must equal this
  /// controller's source). On admission the bandwidth is reserved along the
  /// returned route; the caller must eventually release it (Flow teardown).
  /// Discarding the result leaks the reservation, hence [[nodiscard]].
  [[nodiscard]] AdmissionDecision admit(const FlowRequest& request, des::RandomStream& rng);

  /// Releases an admitted flow's reservation (TEAR signaling included).
  void release(const AdmissionDecision& decision, net::Bandwidth bandwidth_bps);

  /// Registers `observer` to see every subsequent admit() loop (nullptr
  /// detaches). At most one observer; it must outlive the controller or be
  /// detached first.
  void set_observer(AdmissionObserver* observer) { observer_ = observer; }

  /// Registers `tracer` to receive a DecisionSpan (with per-attempt child
  /// spans) for every subsequent admit() (nullptr detaches). Collection is
  /// skipped entirely — no snapshots, no allocation — while the tracer has
  /// no sink attached. The tracer must outlive the controller or be
  /// detached first.
  void set_tracer(obs::DecisionTracer* tracer) { tracer_ = tracer; }

  /// Registers `gate` to veto members and observe per-attempt reservation
  /// outcomes (nullptr detaches). At most one gate; it must outlive the
  /// controller or be detached first. When the gate vetoes every live
  /// member the request is rejected with zero attempts, exactly as when
  /// every member is down.
  void set_member_gate(MemberGate* gate) { gate_ = gate; }

  [[nodiscard]] net::NodeId source() const { return source_; }
  [[nodiscard]] const DestinationSelector& selector() const { return *selector_; }
  [[nodiscard]] const RetrialPolicy& retrial_policy() const { return *retrial_; }

 private:
  net::NodeId source_;
  const AnycastGroup* group_;
  const net::RouteTable* routes_;
  signaling::ReservationProtocol* rsvp_;
  std::unique_ptr<DestinationSelector> selector_;
  std::unique_ptr<RetrialPolicy> retrial_;
  // admit()'s per-request tried mask, one flag per member. std::vector<bool>
  // is bit-packed and cannot view as span<const bool>.
  std::unique_ptr<bool[]> tried_;
  // The traced attempt's weight snapshot, refilled in place per attempt.
  std::vector<double> weight_snapshot_;
  AdmissionObserver* observer_ = nullptr;
  obs::DecisionTracer* tracer_ = nullptr;
  MemberGate* gate_ = nullptr;
};

/// GDI baseline: perfect global knowledge, free path choice. A request is
/// admitted iff *some* path with sufficient available bandwidth exists to
/// *some* group member; we route it on the shortest such path. "Obviously,
/// its performance is ideal, but it is not realistic" — it exists to bound
/// the DAC systems from above, so it bypasses signaling (messages = 0) and
/// never calls an AdmissionObserver.
class GlobalAdmissionOracle final : public AdmissionPolicy {
 public:
  /// References must outlive the oracle.
  GlobalAdmissionOracle(const net::Topology& topology, net::BandwidthLedger& ledger,
                        const AnycastGroup& group);

  /// Admits via exhaustive feasible-path search; reserves on success. Draws
  /// nothing from `rng`.
  [[nodiscard]] AdmissionDecision admit(double now, const FlowRequest& request,
                                        des::RandomStream& rng) override;

  /// Returns the bandwidth to the ledger directly (no TEAR signaling).
  void release(const net::Path& route, net::Bandwidth bandwidth_bps) override;

  [[nodiscard]] std::string label() const override { return "GDI"; }

 private:
  /// Orders paths by source, then links: together they fix the path.
  struct PathOrder {
    bool operator()(const net::Path& a, const net::Path& b) const {
      return a.source != b.source ? a.source < b.source : a.links < b.links;
    }
  };

  const net::Topology* topology_;
  net::BandwidthLedger* ledger_;
  const AnycastGroup* group_;
  // Every distinct path an admission was routed on; decisions point into
  // it. Bounded by the number of distinct feasible shortest paths.
  std::set<net::Path, PathOrder> paths_;
};

}  // namespace anyqos::core
