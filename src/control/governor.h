// Closed-loop overload protection (feedback control plane).
//
// The static <A, R> systems the paper evaluates pick their retrial bound R
// once, offline. Near saturation that mostly burns signaling: Figure 7
// shows msgs/request climbing steeply while admission probability
// collapses, because every rejection still walks up to R reservation
// attempts. The OverloadGovernor closes the loop from the telemetry the
// windowed timeline already observes — per-window rejection rate and
// per-link utilization high-water marks — back into admission behaviour,
// the way admission control can adapt from accept/reject feedback alone
// (Jaramillo & Ying) and anycast CDN frontends shed or redirect load when
// a member degrades. Three cooperating mechanisms behind one object:
//
//   1. Adaptive retrial bound (AIMD). Each window the governor classifies
//      the system hot (rejection rate and utilization high-water mark both
//      above their thresholds) or cool (rejection rate below its
//      threshold). Hot halves the effective bound toward a floor
//      (multiplicative decrease); cool raises it by one toward the static
//      ceiling R (additive increase); anything in between holds. The floor
//      defaults to 3 because the paper's own retrial data (Figures 3-4)
//      shows R: 1 -> 2 -> 3 carrying nearly all of the admission-
//      probability gain while attempts beyond 3 are almost pure signaling
//      at saturation; R = 1 additionally herds every source onto the same
//      member. control::AdaptiveRetrialPolicy reads the effective bound.
//
//   2. Per-member circuit breakers. Consecutive capacity failures against
//      one member, retransmit exhaustion (the resilient protocol gave up
//      without a definitive answer), or member churn trip that member's
//      breaker Open: the governor's MemberGate veto masks the member out
//      of selection (weight zeroed, renormalized over the rest). A DES
//      cooldown timer moves the breaker to HalfOpen, where real requests
//      probe the member; a probe success closes it, a failure re-opens it.
//
//   3. Source-side load shedding. An optional signaling budget — a token
//      bucket over PATH messages, reusing sched::TokenBucket — fast-
//      rejects requests with no reservation walk at all when exhausted.
//      Shed requests cost zero messages and are counted separately from
//      capacity rejections (SimulationResult::shed, outcome="shed").
//
// Wiring: SimulationConfig::governor holds the options; sim::Simulation
// builds the governor with the group size and retry ceiling R in its
// constructor, attach()es the window timer at run(), and exposes it
// read-only as Simulation::governor(). A run without one costs one pointer
// check per use and changes no artifact.
//
// Determinism contract: every input is model state observed in virtual
// time and every timer runs on the DES kernel, so two runs with the same
// seed and config behave byte-identically — governor included.
#pragma once

#include <cstdint>
#include <functional>
#include <optional>
#include <vector>

#include "src/core/admission.h"
#include "src/control/circuit_breaker.h"
#include "src/des/category.h"
#include "src/control/directive.h"
#include "src/sched/token_bucket.h"

namespace anyqos::des {
class Simulator;
}  // namespace anyqos::des

namespace anyqos::control {

/// Tuning knobs; the defaults engage adaptive retrial and breakers but not
/// shedding (an explicit budget is an operator decision).
struct GovernorOptions {
  /// Simulated seconds per feedback window; must be positive.
  double window_s = 50.0;

  // --- Mechanism 1: adaptive retrial bound ---
  bool adaptive_retrial = true;
  /// Floor the AIMD decrease clamps to (see the file comment for why 3);
  /// effectively min(min_tries, R). Must be at least 1.
  std::size_t min_tries = 3;
  /// A window is hot when BOTH the rejection rate and the utilization
  /// high-water mark reach their thresholds — rejection alone can spike on
  /// a cold cache, utilization alone is normal near full offered load.
  double hot_rejection_rate = 0.30;
  double hot_utilization = 0.90;
  /// A window is cool when the rejection rate falls to this or below.
  double cool_rejection_rate = 0.15;

  // --- Mechanism 2: per-member circuit breakers ---
  bool member_breakers = true;
  BreakerOptions breaker;

  // --- Mechanism 3: source-side load shedding ---
  /// Sustained PATH-message budget per second; 0 disables shedding.
  double shed_budget_msgs_per_s = 0.0;
  /// Bucket depth in messages; 0 derives 2 x budget (min 1).
  double shed_burst_msgs = 0.0;
};

/// Control-action tallies (whole run, warm-up included — control acts
/// during warm-up too, exactly like the breakers and the bucket).
struct GovernorStats {
  std::uint64_t windows = 0;         ///< feedback windows evaluated
  std::uint64_t tighten_steps = 0;   ///< multiplicative decreases applied
  std::uint64_t relax_steps = 0;     ///< additive increases applied
  std::uint64_t shed = 0;            ///< requests fast-rejected by the budget
  std::uint64_t breaker_trips = 0;   ///< transitions into Open (re-opens included)
  std::uint64_t breaker_probes = 0;  ///< HalfOpen attempts offered to members
  std::uint64_t breaker_closes = 0;  ///< probes that closed a breaker
};

/// The feedback control plane; see the file comment for the contract.
class OverloadGovernor final : public core::MemberGate {
 public:
  /// Fixes the group size (one breaker per member) and the static retry
  /// ceiling R; both must be at least 1.
  OverloadGovernor(std::size_t group_size, std::size_t max_tries, GovernorOptions options = {});

  /// Installs the self-rescheduling window timer on the kernel (once;
  /// Simulation::run() calls it). `stop_rearming` — when supplied — is
  /// consulted after each window; once true no further window event is
  /// parked, so a drain-to-quiescence run can empty its calendar. Breaker
  /// cooldown timers are one-shot and always fire: a drained run ends with
  /// every tripped breaker out of the Open state. `simulator` must outlive
  /// this.
  void attach(des::Simulator& simulator, std::function<bool()> stop_rearming = {});

  // --- Load shedding (consult before the reservation walk) ---
  /// True admits the request to the DAC walk; false means the signaling
  /// budget is exhausted — the caller fast-rejects with zero messages.
  /// Always true when no budget is configured.
  [[nodiscard]] bool admit_request(double now);

  // --- Feedback inputs ---
  /// One completed reservation walk: the outcome feeds the window's
  /// rejection rate and `path_messages` (PATH hop traversals the walk
  /// spent) draws down the signaling budget. The bucket never goes
  /// negative: a walk only pays what is left.
  void on_decision(double now, bool admitted, std::uint64_t path_messages);
  /// A link utilization observed on the hot path; feeds the window's
  /// high-water mark.
  void note_utilization(double utilization) {
    if (utilization > window_util_hwm_) {
      window_util_hwm_ = utilization;
    }
  }
  /// Churn took `member_index` down: trips its breaker immediately.
  void on_member_churn(std::size_t member_index);

  // --- core::MemberGate (the admission loop consults these) ---
  [[nodiscard]] bool allow_member(std::size_t member_index) override;
  void on_member_result(std::size_t member_index,
                        const signaling::ReservationResult& result) override;

  // --- Adaptive retrial bound ---
  /// The bound AdaptiveRetrialPolicy enforces right now, in
  /// [min(min_tries, R), R].
  [[nodiscard]] std::size_t effective_max_tries() const { return effective_tries_; }
  /// The static ceiling R (the auditor's attempts <= R invariant and span
  /// budgets are sized against this, never against the tightened bound).
  [[nodiscard]] std::size_t max_tries_ceiling() const { return max_tries_; }
  /// Evaluates one feedback window now (the AIMD step) and resets the
  /// window counters. Public so unit tests can drive windows without a
  /// kernel; the attached timer calls this every window_s.
  void advance_window();

  // --- Runtime control (the ops plane's seam; DES thread only) ---
  /// Applies one pre-validated directive (validate_directive must have
  /// passed — invalid values throw here) and returns the value actually
  /// applied after clamping:
  ///   retrial-ceiling    clamped to [1, R] — the construction-time R
  ///                      is the hard envelope the auditor and span budgets
  ///                      were sized against, so an operator can tighten or
  ///                      re-relax but never exceed it. The floor and the
  ///                      effective bound are re-clamped underneath it.
  ///   retrial-floor      clamped to [1, current ceiling]; the effective
  ///                      bound rises to the floor if it was below.
  ///   shed-budget        0 disengages the bucket; > 0 (re)builds it full
  ///                      at the new rate (deterministic: bucket state is a
  ///                      pure function of the directive and its DES time).
  ///   shed-burst         new depth; rebuilds an engaged bucket.
  ///   breaker-threshold  propagated to every member breaker (judges the
  ///                      streak going forward).
  ///   breaker-cooldown   read at the next trip's schedule time.
  /// Directives act regardless of which mechanisms the options enabled at
  /// construction — e.g. a shed-budget directive engages shedding on a
  /// governor built without it.
  double apply_directive(const ControlDirective& directive);

  // --- Views ---
  /// The floor the AIMD decrease clamps to, min(options.min_tries, R);
  /// retrial-floor directives move it.
  [[nodiscard]] std::size_t min_tries_floor() const { return floor_tries_; }
  /// True when the shed bucket is engaged (budget > 0 configured or
  /// directed at runtime).
  [[nodiscard]] bool shedding() const { return budget_.has_value(); }
  /// Tokens left in the shed bucket at `now`; requires shedding().
  [[nodiscard]] double shed_tokens(double now) const;
  [[nodiscard]] std::size_t open_breakers() const;
  [[nodiscard]] BreakerState breaker_state(std::size_t member_index) const;
  [[nodiscard]] const GovernorStats& stats() const { return stats_; }
  [[nodiscard]] const GovernorOptions& options() const { return options_; }

 private:
  void schedule_window();
  void trip_breaker(std::size_t member_index);
  void rebuild_shed_bucket();

  GovernorOptions options_;
  des::Simulator* simulator_ = nullptr;
  des::EventCategory cat_window_;   // "control.window" kernel tag
  des::EventCategory cat_breaker_;  // "control.breaker" kernel tag
  std::function<bool()> stop_rearming_;
  std::size_t static_tries_;     ///< R at construction: the hard retry envelope
  std::size_t max_tries_;        ///< current ceiling, <= static_tries_
  std::size_t floor_tries_;      ///< min(options.min_tries, R)
  std::size_t effective_tries_;  ///< current adaptive bound
  // Window accumulators (reset by advance_window).
  std::uint64_t window_offered_ = 0;
  std::uint64_t window_rejected_ = 0;
  double window_util_hwm_ = 0.0;
  std::vector<CircuitBreaker> breakers_;  // one per group member
  /// Trip generation per member: a cooldown timer captures the generation
  /// it was scheduled for and goes stale when a newer trip supersedes it.
  std::vector<std::uint64_t> breaker_generation_;
  std::optional<sched::TokenBucket> budget_;  // engaged iff shedding configured
  GovernorStats stats_;
};

}  // namespace anyqos::control
