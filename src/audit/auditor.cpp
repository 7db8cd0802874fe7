#include "src/audit/auditor.h"

#include <algorithm>
#include <cmath>
#include <string>
#include <utility>

#include "src/sim/simulation.h"
#include "src/util/require.h"
#include "src/util/strings.h"

namespace anyqos::audit {

namespace {

/// Tolerance for |sum W_i - 1| in the weight-normalization check.
constexpr double kWeightEpsilon = 1e-6;
/// Relative tolerance for bandwidth comparisons (floating-point slack on
/// ledger sums); absolute slack is `kBandwidthEpsilon * (capacity + 1)`.
constexpr double kBandwidthEpsilon = 1e-6;

std::string describe_path(const net::Path& path, net::Bandwidth amount) {
  std::string text = "path ";
  text += std::to_string(path.source);
  text += "->";
  text += std::to_string(path.destination);
  text += " (";
  text += std::to_string(path.hops());
  text += " hops, ";
  text += util::format_fixed(amount, 0);
  text += " bps)";
  return text;
}

}  // namespace

bool InvariantAuditor::ReservationOrder::operator()(ReservationRef a, ReservationRef b) const {
  if (a.amount != b.amount) {
    return a.amount < b.amount;
  }
  return std::lexicographical_compare(a.links.begin(), a.links.end(), b.links.begin(),
                                      b.links.end());
}

InvariantAuditor::InvariantAuditor(AuditorOptions options) : options_(options) {}

InvariantAuditor::~InvariantAuditor() {
  if (ledger_ != nullptr && ledger_->observer() == this) {
    ledger_->set_observer(nullptr);
  }
  if (simulation_ != nullptr) {
    simulation_->set_admission_observer(nullptr);
  }
}

void InvariantAuditor::watch_ledger(net::BandwidthLedger& ledger) {
  util::require(ledger_ == nullptr, "auditor already watches a ledger");
  util::require(ledger.total_reserved() == 0.0,
                "auditor must attach to an idle ledger (shadow starts empty)");
  ledger_ = &ledger;
  shadow_reserved_.assign(ledger.link_count(), 0.0);
  ledger.set_observer(this);
}

void InvariantAuditor::watch_soft_state(const signaling::SoftStateManager& manager) {
  soft_state_.push_back(&manager);
}

void InvariantAuditor::attach(sim::Simulation& simulation) {
  util::require(simulation_ == nullptr, "auditor already attached to a simulation");
  simulation_ = &simulation;
  category_ = simulation.simulator().category("audit.checkpoint");
  watch_ledger(simulation.ledger());
  simulation.set_admission_observer(this);
  if (options_.checkpoint_interval_s > 0.0) {
    schedule_checkpoint();
  }
}

void InvariantAuditor::schedule_checkpoint() {
  // Self-rescheduling like SoftStateManager's refresh timer: one pending
  // event at all times, so run_until() leaves it parked past the horizon.
  simulation_->simulator().schedule_in(options_.checkpoint_interval_s, category_, [this] {
    checkpoint(now());
    // A draining run (drain_to_quiescence) ends when the calendar empties;
    // parking another checkpoint would keep it spinning forever. The final
    // checkpoint above still audits the drain in progress.
    if (!simulation_->draining()) {
      schedule_checkpoint();
    }
  });
}

double InvariantAuditor::now() const {
  return simulation_ != nullptr ? simulation_->simulator().now() : 0.0;
}

void InvariantAuditor::report(AuditCheck check, std::string detail) {
  Violation violation;
  violation.check = check;
  violation.sim_time = now();
  violation.detail = std::move(detail);
  log_.add(violation);
  if (violation_hook_ != nullptr) {
    violation_hook_(log_.entries().back());
  }
  if (options_.throw_on_violation) {
    const Violation& recorded = log_.entries().back();
    throw util::InvariantError("invariant audit [" + to_string(recorded.check) +
                               "] at t=" + util::format_fixed(recorded.sim_time, 3) + ": " +
                               recorded.detail);
  }
}

std::size_t InvariantAuditor::open_reservations() const {
  std::size_t total = 0;
  for (const auto& [key, count] : open_) {
    total += count;
  }
  return total;
}

// --- LedgerObserver ---------------------------------------------------------

std::size_t& InvariantAuditor::open_count(ReservationRef key) {
  auto it = open_.lower_bound(key);
  if (it == open_.end() || ReservationOrder{}(key, it->first)) {
    it = open_.emplace_hint(it, ReservationKey{{key.links.begin(), key.links.end()}, key.amount},
                            0);
  }
  return it->second;
}

void InvariantAuditor::on_reserve(const net::Path& path, net::Bandwidth amount) {
  for (const net::LinkId id : path.links) {
    shadow_reserved_[id] += amount;
  }
  ++open_count({path.links, amount});
}

void InvariantAuditor::on_release(const net::Path& path, net::Bandwidth amount) {
  const auto it = open_.find(ReservationRef{path.links, amount});
  if (it == open_.end() || it->second == 0) {
    report(AuditCheck::kLedgerPairing,
           "release with no matching open reservation (double release?) on " +
               describe_path(path, amount));
    return;  // only reached with throw_on_violation off; skip shadow update
  }
  --it->second;
  for (const net::LinkId id : path.links) {
    shadow_reserved_[id] -= amount;
    if (shadow_reserved_[id] < 0.0) {
      shadow_reserved_[id] = 0.0;  // floating-point slack only; drift is
    }                              // caught by the checkpoint comparison
  }
}

void InvariantAuditor::on_reservation_narrowed(const net::Path& from, const net::Path& to,
                                               net::Bandwidth amount) {
  // A narrow re-keys one open reservation from `from` to `to` and returns
  // `amount` on the dropped links. Pairing must match the *original* key —
  // narrowing a reservation that was never opened is the same defect class
  // as a double release.
  const auto it = open_.find(ReservationRef{from.links, amount});
  if (it == open_.end() || it->second == 0) {
    report(AuditCheck::kLedgerPairing,
           "narrow with no matching open reservation on " + describe_path(from, amount));
    return;  // only reached with throw_on_violation off; skip shadow update
  }
  --it->second;
  if (!to.links.empty()) {
    ++open_count({to.links, amount});
  }
  // Shadow: the dropped links (multiset difference from \ to) give back
  // `amount`; the kept links are untouched.
  std::vector<net::LinkId> keep = to.links;
  for (const net::LinkId id : from.links) {
    const auto kept = std::find(keep.begin(), keep.end(), id);
    if (kept != keep.end()) {
      keep.erase(kept);
      continue;
    }
    shadow_reserved_[id] -= amount;
    if (shadow_reserved_[id] < 0.0) {
      shadow_reserved_[id] = 0.0;  // floating-point slack only
    }
  }
}

void InvariantAuditor::on_link_failed(net::LinkId id) {
  const double slack = kBandwidthEpsilon * (ledger_->capacity(id) + 1.0);
  if (shadow_reserved_[id] > slack) {
    report(AuditCheck::kLedgerConservation,
           "link " + std::to_string(id) + " failed while the shadow account holds " +
               util::format_fixed(shadow_reserved_[id], 0) + " bps reserved");
  }
}

void InvariantAuditor::on_link_restored(net::LinkId id) {
  shadow_reserved_[id] = 0.0;  // a restored link comes back fully idle
}

// --- AdmissionObserver ------------------------------------------------------

void InvariantAuditor::on_request_begin(net::NodeId /*source*/) { tried_.clear(); }

void InvariantAuditor::on_attempt(net::NodeId source, std::size_t member_index) {
  if (std::find(tried_.begin(), tried_.end(), member_index) != tried_.end()) {
    report(AuditCheck::kRetrialDisjointness,
           "AC-router " + std::to_string(source) + " retried member " +
               std::to_string(member_index) + " within one request");
    return;
  }
  tried_.push_back(member_index);
}

void InvariantAuditor::on_decision(net::NodeId source, const core::AdmissionDecision& decision,
                                   std::size_t max_attempts, std::size_t group_size) {
  if (decision.attempts > max_attempts) {
    report(AuditCheck::kRetrialDisjointness,
           "AC-router " + std::to_string(source) + " made " +
               std::to_string(decision.attempts) + " attempts, exceeding R=" +
               std::to_string(max_attempts));
  }
  if (decision.attempts > group_size) {
    report(AuditCheck::kRetrialDisjointness,
           "AC-router " + std::to_string(source) + " made " +
               std::to_string(decision.attempts) + " attempts against only K=" +
               std::to_string(group_size) + " members");
  }
  tried_.clear();
}

// --- checkpoint checks ------------------------------------------------------

std::size_t InvariantAuditor::checkpoint(double sim_time) {
  const std::size_t before = log_.size();
  if (ledger_ != nullptr) {
    check_ledger(sim_time);
  }
  if (simulation_ != nullptr) {
    check_weights(sim_time);
  }
  check_soft_state(sim_time);
  return violations_since(before);
}

void InvariantAuditor::check_ledger(double sim_time) {
  (void)sim_time;
  for (net::LinkId id = 0; id < ledger_->link_count(); ++id) {
    const net::Bandwidth capacity = ledger_->capacity(id);
    const net::Bandwidth reserved = ledger_->reserved(id);
    const double slack = kBandwidthEpsilon * (capacity + 1.0);
    if (reserved < -slack || reserved > capacity + slack) {
      report(AuditCheck::kLedgerConservation,
             "link " + std::to_string(id) + " reserved " + util::format_fixed(reserved, 0) +
                 " bps outside [0, " + util::format_fixed(capacity, 0) + "]");
    }
    // On failed links capacity is 0 and reserved reads 0 - available = 0.
    if (std::abs(shadow_reserved_[id] - reserved) >
        slack + kBandwidthEpsilon * (shadow_reserved_[id] + 1.0)) {
      report(AuditCheck::kLedgerConservation,
             "link " + std::to_string(id) + " ledger reserved " +
                 util::format_fixed(reserved, 0) + " bps but observed reserve/release " +
                 "traffic accounts for " + util::format_fixed(shadow_reserved_[id], 0) +
                 " bps (drift)");
    }
  }
}

void InvariantAuditor::check_weights(double sim_time) {
  (void)sim_time;
  simulation_->active_selectors(selectors_);
  for (const auto& [source, selector] : selectors_) {
    selector->fill_weights(weights_);
    if (weights_.empty()) {
      continue;
    }
    double sum = 0.0;
    double minimum = weights_.front();
    for (const double w : weights_) {
      sum += w;
      minimum = std::min(minimum, w);
    }
    if (minimum < 0.0) {
      report(AuditCheck::kWeightNormalization,
             "AC-router " + std::to_string(source) + " selector " + selector->name() +
                 " has a negative weight " + util::format_fixed(minimum, 9));
      continue;
    }
    if (std::abs(sum - 1.0) >= kWeightEpsilon) {
      report(AuditCheck::kWeightNormalization,
             "AC-router " + std::to_string(source) + " selector " + selector->name() +
                 " weights sum to " + util::format_fixed(sum, 9) +
                 ", violating constraint (1)");
    }
  }
}

void InvariantAuditor::check_soft_state(double sim_time) {
  (void)sim_time;
  for (const signaling::SoftStateManager* manager : soft_state_) {
    const std::size_t lifetime = manager->options().lifetime_refreshes;
    manager->for_each_session([&](const signaling::SoftStateManager::SessionView& session) {
      if (session.missed >= lifetime) {
        report(AuditCheck::kSoftStateExpiry,
               "session " + std::to_string(session.id) + " missed " +
                   std::to_string(session.missed) + " refreshes but outlived K=" +
                   std::to_string(lifetime));
      }
      if (session.bandwidth <= 0.0) {
        report(AuditCheck::kSoftStateExpiry,
               "session " + std::to_string(session.id) + " holds non-positive bandwidth");
      }
      if (ledger_ != nullptr) {
        for (const net::LinkId id : session.route->links) {
          const double slack = kBandwidthEpsilon * (ledger_->capacity(id) + 1.0);
          if (ledger_->reserved(id) + slack < session.bandwidth) {
            report(AuditCheck::kSoftStateExpiry,
                   "session " + std::to_string(session.id) + " claims " +
                       util::format_fixed(session.bandwidth, 0) + " bps on link " +
                       std::to_string(id) + " but the ledger holds only " +
                       util::format_fixed(ledger_->reserved(id), 0) + " bps reserved");
          }
        }
      }
    });
  }
}

}  // namespace anyqos::audit
