// Runtime invariant auditor for the admission pipeline.
//
// The paper states invariants the code maintains only implicitly; the
// auditor makes them machine-checked at runtime:
//
//   * Ledger conservation — per directed link, 0 <= reserved <= capacity,
//     and the ledger's totals match an independently maintained shadow
//     account of every reserve/release it observed (drift detection).
//   * Ledger pairing — every release() matches a prior reserve() with the
//     same (path, amount); a double release is caught even when other
//     flows' reservations mask it from the ledger's own bounds checks.
//   * Weight normalization — every active selector's weight vector
//     satisfies constraint (1): |sum W_i - 1| < epsilon (eqs. (2), (4)-(12)).
//   * Retrial disjointness — within one request, no destination is tried
//     twice and the attempt count c never exceeds the retry budget R
//     (Section 4.5) or the group size K.
//   * Soft-state expiry consistency — every live RSVP session has missed
//     fewer refreshes than its expiry budget and still holds its bandwidth
//     in the ledger.
//
// Violations are appended to a structured ViolationLog and (by default)
// escalated through util::InvariantError so a corrupted simulation stops at
// the first inconsistency instead of producing plausible-but-wrong results.
#pragma once

#include <cstddef>
#include <functional>
#include <map>
#include <span>
#include <utility>
#include <vector>

#include "src/audit/violation.h"
#include "src/des/category.h"
#include "src/core/admission.h"
#include "src/net/bandwidth.h"
#include "src/signaling/soft_state.h"

namespace anyqos::sim {
class Simulation;
}  // namespace anyqos::sim

namespace anyqos::audit {

/// Tuning knobs for the auditor.
struct AuditorOptions {
  /// Escalate every violation as util::InvariantError (after logging it).
  bool throw_on_violation = true;
  /// Period of the self-rescheduling checkpoint event attach() installs;
  /// <= 0 disables periodic checkpoints (call checkpoint() manually).
  double checkpoint_interval_s = 100.0;
};

/// Attachable invariant auditor. One instance audits one ledger (and
/// optionally one simulation plus any number of soft-state managers).
class InvariantAuditor final : public net::LedgerObserver, public core::AdmissionObserver {
 public:
  explicit InvariantAuditor(AuditorOptions options = {});
  ~InvariantAuditor() override;

  InvariantAuditor(const InvariantAuditor&) = delete;
  InvariantAuditor& operator=(const InvariantAuditor&) = delete;

  /// Starts shadow-accounting `ledger` (registers this as its observer).
  /// The ledger must be idle (nothing reserved) or the shadow would start
  /// out of sync. `ledger` must outlive the auditor or the auditor detaches
  /// itself on destruction first.
  void watch_ledger(net::BandwidthLedger& ledger);

  /// Adds `manager`'s sessions to the checkpoint checks. The manager must
  /// share the watched ledger for the bandwidth-backing check to hold.
  void watch_soft_state(const signaling::SoftStateManager& manager);

  /// Full wiring for a simulation: shadows its ledger, observes every
  /// AC-router's DAC loop, and (when checkpoint_interval_s > 0) installs a
  /// periodic checkpoint event on the simulation's kernel. Call before
  /// Simulation::run(). The auditor must outlive the run; it detaches on
  /// destruction.
  void attach(sim::Simulation& simulation);

  /// Runs every enabled check now; returns the number of violations this
  /// pass found (0 when clean). With throw_on_violation the first finding
  /// throws util::InvariantError instead of returning.
  std::size_t checkpoint(double sim_time);

  /// Everything found so far (never cleared by the auditor itself).
  [[nodiscard]] const ViolationLog& log() const { return log_; }

  /// Registers a callback fired for every violation, after it is logged and
  /// *before* any throw_on_violation escalation — the hook observes the
  /// failure even when the run is about to abort. Used to trigger the
  /// flight recorder so a violation dumps its causal snapshot. nullptr
  /// detaches; the hook must not mutate the audited simulation.
  void set_violation_hook(std::function<void(const Violation&)> hook) {
    violation_hook_ = std::move(hook);
  }

  /// Reserve/release pairs currently open in the shadow account.
  [[nodiscard]] std::size_t open_reservations() const;

  // --- net::LedgerObserver ---
  void on_reserve(const net::Path& path, net::Bandwidth amount) override;
  void on_release(const net::Path& path, net::Bandwidth amount) override;
  void on_reservation_narrowed(const net::Path& from, const net::Path& to,
                               net::Bandwidth amount) override;
  void on_link_failed(net::LinkId id) override;
  void on_link_restored(net::LinkId id) override;

  // --- core::AdmissionObserver ---
  void on_request_begin(net::NodeId source) override;
  void on_attempt(net::NodeId source, std::size_t member_index) override;
  void on_decision(net::NodeId source, const core::AdmissionDecision& decision,
                   std::size_t max_attempts, std::size_t group_size) override;

 private:
  /// (path links, amount) identifying one reservation for pairing purposes,
  /// viewed in place so a lookup copies no route.
  struct ReservationRef {
    std::span<const net::LinkId> links;
    net::Bandwidth amount = 0.0;
  };
  /// The stored form of a ReservationRef.
  struct ReservationKey {
    std::vector<net::LinkId> links;
    net::Bandwidth amount = 0.0;
    operator ReservationRef() const { return {links, amount}; }
  };
  /// By amount, then links lexicographically; transparent, so open_ is
  /// searched with a ReservationRef.
  struct ReservationOrder {
    using is_transparent = void;
    bool operator()(ReservationRef a, ReservationRef b) const;
  };

  /// The open count of `key`, inserted at 0 on first sight. Keys whose
  /// count drops to 0 stay, so a route that comes back allocates nothing.
  std::size_t& open_count(ReservationRef key);

  void report(AuditCheck check, std::string detail);
  [[nodiscard]] double now() const;
  void schedule_checkpoint();
  void check_ledger(double sim_time);
  void check_weights(double sim_time);
  void check_soft_state(double sim_time);
  /// Violations found since `before`, for checkpoint()'s return value.
  std::size_t violations_since(std::size_t before) const { return log_.size() - before; }

  AuditorOptions options_;
  ViolationLog log_;
  std::function<void(const Violation&)> violation_hook_;

  net::BandwidthLedger* ledger_ = nullptr;
  std::vector<net::Bandwidth> shadow_reserved_;         // per directed link
  std::map<ReservationKey, std::size_t, ReservationOrder> open_;  // reserve/release pairing

  sim::Simulation* simulation_ = nullptr;
  des::EventCategory category_;  // "audit.checkpoint" kernel tag
  std::vector<const signaling::SoftStateManager*> soft_state_;
  // check_weights()'s buffers, reused across checkpoints.
  std::vector<std::pair<net::NodeId, const core::DestinationSelector*>> selectors_;
  std::vector<double> weights_;

  // Members the request inside the DAC loop has tried. Requests run one at
  // a time within the DES, so one list serves every AC-router.
  std::vector<std::size_t> tried_;
};

}  // namespace anyqos::audit
