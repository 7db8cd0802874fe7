#include "src/control/governor.h"

#include <algorithm>

#include "src/des/simulator.h"
#include "src/util/require.h"

namespace anyqos::control {

OverloadGovernor::OverloadGovernor(std::size_t group_size, std::size_t max_tries,
                                   GovernorOptions options)
    : options_(options),
      static_tries_(max_tries),
      max_tries_(max_tries),
      floor_tries_(std::min(options.min_tries, max_tries)),
      effective_tries_(max_tries) {  // start wide open; the loop tightens from evidence
  util::require(options.window_s > 0.0, "governor window must be positive");
  util::require(options.min_tries >= 1, "adaptive retrial floor must be at least 1");
  util::require(options.hot_rejection_rate > 0.0 && options.hot_rejection_rate <= 1.0,
                "hot rejection-rate threshold must be in (0, 1]");
  util::require(options.hot_utilization > 0.0 && options.hot_utilization <= 1.0,
                "hot utilization threshold must be in (0, 1]");
  util::require(options.cool_rejection_rate >= 0.0 &&
                    options.cool_rejection_rate < options.hot_rejection_rate,
                "cool rejection-rate threshold must be below the hot one");
  util::require(options.shed_budget_msgs_per_s >= 0.0,
                "signaling budget must be non-negative");
  util::require(options.shed_burst_msgs >= 0.0, "signaling burst must be non-negative");
  util::require(group_size >= 1, "governor needs a non-empty group");
  util::require(max_tries >= 1, "retry ceiling R must be at least 1");
  breakers_.assign(group_size, CircuitBreaker(options_.breaker));
  breaker_generation_.assign(group_size, 0);
  rebuild_shed_bucket();
}

void OverloadGovernor::rebuild_shed_bucket() {
  if (options_.shed_budget_msgs_per_s > 0.0) {
    const double depth = options_.shed_burst_msgs > 0.0
                             ? options_.shed_burst_msgs
                             : std::max(1.0, 2.0 * options_.shed_budget_msgs_per_s);
    budget_.emplace(options_.shed_budget_msgs_per_s, depth);
  } else {
    budget_.reset();
  }
}

void OverloadGovernor::attach(des::Simulator& simulator, std::function<bool()> stop_rearming) {
  util::require(simulator_ == nullptr, "governor already attached");
  simulator_ = &simulator;
  cat_window_ = simulator.category("control.window");
  cat_breaker_ = simulator.category("control.breaker");
  stop_rearming_ = std::move(stop_rearming);
  schedule_window();
}

void OverloadGovernor::schedule_window() {
  simulator_->schedule_in(options_.window_s, cat_window_, [this] {
    advance_window();
    if (!stop_rearming_ || !stop_rearming_()) {
      schedule_window();
    }
  });
}

void OverloadGovernor::advance_window() {
  ++stats_.windows;
  if (options_.adaptive_retrial && window_offered_ > 0) {
    const double rejection =
        static_cast<double>(window_rejected_) / static_cast<double>(window_offered_);
    // Hot needs both signals: rejections alone can spike while the backbone
    // is idle (churned members, cold history), and a high-water mark alone
    // is normal whenever offered load brushes a bottleneck.
    const bool hot = rejection >= options_.hot_rejection_rate &&
                     window_util_hwm_ >= options_.hot_utilization;
    const bool cool = rejection <= options_.cool_rejection_rate;
    if (hot && effective_tries_ > floor_tries_) {
      effective_tries_ = std::max(floor_tries_, effective_tries_ / 2);
      ++stats_.tighten_steps;
    } else if (cool && effective_tries_ < max_tries_) {
      ++effective_tries_;
      ++stats_.relax_steps;
    }
  }
  window_offered_ = 0;
  window_rejected_ = 0;
  window_util_hwm_ = 0.0;
}

double OverloadGovernor::apply_directive(const ControlDirective& directive) {
  const std::optional<std::string> error = validate_directive(directive.knob, directive.value);
  util::require(!error.has_value(), "invalid control directive: " + error.value_or(""));
  switch (directive.knob) {
    case Knob::kRetrialCeiling: {
      const auto requested = static_cast<std::size_t>(directive.value);
      max_tries_ = std::clamp<std::size_t>(requested, 1, static_tries_);
      floor_tries_ = std::min(floor_tries_, max_tries_);
      options_.min_tries = floor_tries_;
      effective_tries_ = std::clamp(effective_tries_, floor_tries_, max_tries_);
      return static_cast<double>(max_tries_);
    }
    case Knob::kRetrialFloor: {
      const auto requested = static_cast<std::size_t>(directive.value);
      floor_tries_ = std::clamp<std::size_t>(requested, 1, max_tries_);
      options_.min_tries = floor_tries_;
      effective_tries_ = std::max(effective_tries_, floor_tries_);
      return static_cast<double>(floor_tries_);
    }
    case Knob::kShedBudget:
      options_.shed_budget_msgs_per_s = directive.value;
      rebuild_shed_bucket();
      return directive.value;
    case Knob::kShedBurst:
      options_.shed_burst_msgs = directive.value;
      rebuild_shed_bucket();
      return directive.value;
    case Knob::kBreakerThreshold:
      options_.breaker.failure_threshold = static_cast<std::size_t>(directive.value);
      for (CircuitBreaker& breaker : breakers_) {
        breaker.set_options(options_.breaker);
      }
      return static_cast<double>(options_.breaker.failure_threshold);
    case Knob::kBreakerCooldown:
      // trip_breaker reads options_.breaker.cooldown_s at schedule time, so
      // the new cooldown governs every trip after this directive.
      options_.breaker.cooldown_s = directive.value;
      return directive.value;
  }
  util::unreachable("Knob");
}

double OverloadGovernor::shed_tokens(double now) const {
  util::require(budget_.has_value(), "shed_tokens requires an engaged budget");
  return budget_->tokens_at(now);
}

bool OverloadGovernor::admit_request(double now) {
  if (!budget_.has_value()) {
    return true;
  }
  // One message of headroom admits the walk; the walk then pays only what
  // is left (the bucket floors at zero, it never goes into debt).
  if (budget_->tokens_at(now) >= 1.0) {
    return true;
  }
  ++stats_.shed;
  return false;
}

void OverloadGovernor::on_decision(double now, bool admitted, std::uint64_t path_messages) {
  ++window_offered_;
  if (!admitted) {
    ++window_rejected_;
  }
  if (budget_.has_value()) {
    for (std::uint64_t paid = 0; paid < path_messages; ++paid) {
      if (!budget_->police(now, 1.0)) {
        break;  // budget floor reached; the remainder of this walk is free
      }
    }
  }
}

void OverloadGovernor::on_member_churn(std::size_t member_index) {
  util::require(member_index < breakers_.size(), "churn for a member outside the group");
  if (!options_.member_breakers) {
    return;
  }
  if (breakers_[member_index].trip()) {
    trip_breaker(member_index);
  }
}

bool OverloadGovernor::allow_member(std::size_t member_index) {
  return breakers_[member_index].allows();
}

void OverloadGovernor::on_member_result(std::size_t member_index,
                                        const signaling::ReservationResult& result) {
  CircuitBreaker& breaker = breakers_[member_index];
  if (breaker.state() == BreakerState::kHalfOpen) {
    ++stats_.breaker_probes;
  }
  if (result.admitted) {
    if (breaker.record_success()) {
      ++stats_.breaker_closes;
    }
    return;
  }
  // A rejection that names no blocking link never got a definitive answer —
  // the resilient protocol exhausted its retransmit budget against this
  // member (the fault-free walk always names the blocking hop). That trips
  // immediately; an ordinary capacity block only advances the streak.
  const bool gave_up = !result.blocking_link.has_value();
  const bool tripped = gave_up ? breaker.trip() : breaker.record_failure();
  if (tripped) {
    trip_breaker(member_index);
  }
}

void OverloadGovernor::trip_breaker(std::size_t member_index) {
  ++stats_.breaker_trips;
  // Cooldown timers are one-shot and never consult stop_rearming: they must
  // fire even during a drain so no breaker is left Open at quiescence. The
  // generation guard keeps a stale timer (superseded by a newer trip) from
  // ending a cooldown early.
  const std::uint64_t generation = ++breaker_generation_[member_index];
  if (simulator_ != nullptr) {
    simulator_->schedule_in(options_.breaker.cooldown_s, cat_breaker_,
                            [this, member_index, generation] {
      if (breaker_generation_[member_index] == generation) {
        breakers_[member_index].half_open();
      }
    });
  }
}

std::size_t OverloadGovernor::open_breakers() const {
  return static_cast<std::size_t>(
      std::count_if(breakers_.begin(), breakers_.end(), [](const CircuitBreaker& breaker) {
        return breaker.state() == BreakerState::kOpen;
      }));
}

BreakerState OverloadGovernor::breaker_state(std::size_t member_index) const {
  util::require(member_index < breakers_.size(), "breaker index outside the group");
  return breakers_[member_index].state();
}

}  // namespace anyqos::control
