#include "src/control/governor.h"

#include <gtest/gtest.h>

#include <optional>
#include <stdexcept>

#include "src/control/adaptive_retrial.h"
#include "src/des/simulator.h"
#include "src/signaling/rsvp.h"

namespace anyqos::control {
namespace {

signaling::ReservationResult capacity_block() {
  signaling::ReservationResult result;
  result.admitted = false;
  result.blocking_link = net::LinkId{0};  // the walk named its bottleneck
  return result;
}

signaling::ReservationResult give_up() {
  signaling::ReservationResult result;
  result.admitted = false;  // no blocking link: retransmit budget exhausted
  return result;
}

signaling::ReservationResult success() {
  signaling::ReservationResult result;
  result.admitted = true;
  return result;
}

/// Feed `offered` walks into the current window, `rejected` of them failing.
void offer(OverloadGovernor& governor, std::uint64_t offered, std::uint64_t rejected,
           double now = 0.0) {
  for (std::uint64_t i = 0; i < offered; ++i) {
    governor.on_decision(now, /*admitted=*/i >= rejected, /*path_messages=*/0);
  }
}

TEST(Governor, BindSetsCeilingFloorAndStartsWideOpen) {
  // Construction binds the group size and R.
  OverloadGovernor governor(/*group_size=*/3, /*max_tries=*/5);
  EXPECT_EQ(governor.max_tries_ceiling(), 5u);
  EXPECT_EQ(governor.min_tries_floor(), 3u);  // the default floor, below R
  EXPECT_EQ(governor.effective_max_tries(), 5u);
  EXPECT_EQ(governor.open_breakers(), 0u);
}

TEST(Governor, FloorClampsToTheCeiling) {
  GovernorOptions options;
  options.min_tries = 3;
  OverloadGovernor governor(2, /*max_tries=*/2, options);  // R below the configured floor
  offer(governor, 10, 10);
  governor.note_utilization(1.0);
  governor.advance_window();
  EXPECT_EQ(governor.effective_max_tries(), 2u);  // floor = min(3, R) = 2
  EXPECT_EQ(governor.stats().tighten_steps, 0u);  // already at the floor
}

TEST(Governor, HotWindowHalvesTowardFloor) {
  GovernorOptions options;
  options.min_tries = 3;
  OverloadGovernor governor(2, /*max_tries=*/16, options);
  // Hot: rejection 0.5 >= 0.30 and hwm 0.95 >= 0.90.
  offer(governor, 10, 5);
  governor.note_utilization(0.95);
  governor.advance_window();
  EXPECT_EQ(governor.effective_max_tries(), 8u);
  offer(governor, 10, 5);
  governor.note_utilization(0.95);
  governor.advance_window();
  EXPECT_EQ(governor.effective_max_tries(), 4u);
  offer(governor, 10, 5);
  governor.note_utilization(0.95);
  governor.advance_window();
  EXPECT_EQ(governor.effective_max_tries(), 3u);  // clamped at the floor, not 2
  offer(governor, 10, 5);
  governor.note_utilization(0.95);
  governor.advance_window();
  EXPECT_EQ(governor.effective_max_tries(), 3u);  // stays there
  EXPECT_EQ(governor.stats().tighten_steps, 3u);
  EXPECT_EQ(governor.stats().windows, 4u);
}

TEST(Governor, HotNeedsBothSignals) {
  OverloadGovernor governor(2, 8);
  // High rejection but idle links: not hot (and not cool at 0.5 > 0.15).
  offer(governor, 10, 5);
  governor.note_utilization(0.50);
  governor.advance_window();
  EXPECT_EQ(governor.effective_max_tries(), 8u);
  // Saturated links but low-but-not-cool rejection: hold as well.
  offer(governor, 10, 2);
  governor.note_utilization(0.99);
  governor.advance_window();
  EXPECT_EQ(governor.effective_max_tries(), 8u);
  EXPECT_EQ(governor.stats().tighten_steps, 0u);
  EXPECT_EQ(governor.stats().relax_steps, 0u);
}

TEST(Governor, CoolWindowsRelaxBackToCeiling) {
  OverloadGovernor governor(2, 8);
  offer(governor, 10, 5);
  governor.note_utilization(1.0);
  governor.advance_window();
  ASSERT_EQ(governor.effective_max_tries(), 4u);
  for (int window = 0; window < 10; ++window) {
    offer(governor, 10, 1);  // rejection 0.1 <= 0.15: cool
    governor.advance_window();
  }
  EXPECT_EQ(governor.effective_max_tries(), 8u);  // additive increase, capped at R
  EXPECT_EQ(governor.stats().relax_steps, 4u);
}

TEST(Governor, EmptyWindowHoldsTheBound) {
  OverloadGovernor governor(2, 8);
  offer(governor, 10, 5);
  governor.note_utilization(1.0);
  governor.advance_window();
  ASSERT_EQ(governor.effective_max_tries(), 4u);
  governor.note_utilization(1.0);  // utilization alone, no walked requests
  governor.advance_window();
  EXPECT_EQ(governor.effective_max_tries(), 4u);  // no evidence, no adaptation
  EXPECT_EQ(governor.stats().windows, 2u);
}

TEST(Governor, WindowCountersResetBetweenWindows) {
  OverloadGovernor governor(2, 8);
  offer(governor, 10, 5);
  governor.note_utilization(1.0);
  governor.advance_window();
  ASSERT_EQ(governor.effective_max_tries(), 4u);
  // The hot evidence must not leak: an empty follow-up window holds.
  governor.advance_window();
  EXPECT_EQ(governor.effective_max_tries(), 4u);
}

TEST(Governor, AdaptiveRetrialDisabledHoldsCeiling) {
  GovernorOptions options;
  options.adaptive_retrial = false;
  OverloadGovernor governor(2, 8, options);
  offer(governor, 10, 10);
  governor.note_utilization(1.0);
  governor.advance_window();
  EXPECT_EQ(governor.effective_max_tries(), 8u);
}

TEST(Governor, NoBudgetNeverSheds) {
  OverloadGovernor governor(2, 5);
  for (int i = 0; i < 100; ++i) {
    EXPECT_TRUE(governor.admit_request(0.0));
  }
  EXPECT_EQ(governor.stats().shed, 0u);
}

TEST(Governor, BudgetShedsWhenExhaustedAndRefills) {
  GovernorOptions options;
  options.shed_budget_msgs_per_s = 10.0;
  options.shed_burst_msgs = 5.0;
  OverloadGovernor governor(2, 5, options);
  // Drain the 5-message bucket with one expensive walk at t = 0.
  EXPECT_TRUE(governor.admit_request(0.0));
  governor.on_decision(0.0, /*admitted=*/false, /*path_messages=*/5);
  EXPECT_FALSE(governor.admit_request(0.0));  // empty: fast-reject
  EXPECT_EQ(governor.stats().shed, 1u);
  // 0.1 s at 10 msgs/s refills one token: admit again.
  EXPECT_TRUE(governor.admit_request(0.1));
}

TEST(Governor, WalkPaymentFloorsAtZero) {
  GovernorOptions options;
  options.shed_budget_msgs_per_s = 10.0;
  options.shed_burst_msgs = 4.0;
  OverloadGovernor governor(2, 5, options);
  // A 100-message walk against a 4-token bucket pays 4 and stops: the
  // bucket floors at zero instead of going into debt for minutes.
  governor.on_decision(0.0, /*admitted=*/true, /*path_messages=*/100);
  EXPECT_FALSE(governor.admit_request(0.0));
  EXPECT_TRUE(governor.admit_request(0.1));  // one token back after 0.1 s, not 10 s
}

TEST(Governor, DerivedBurstIsTwiceTheBudget) {
  GovernorOptions options;
  options.shed_budget_msgs_per_s = 3.0;  // derived depth 6
  OverloadGovernor governor(2, 5, options);
  governor.on_decision(0.0, true, 5);
  EXPECT_TRUE(governor.admit_request(0.0));  // one of six tokens left
  governor.on_decision(0.0, true, 1);
  EXPECT_FALSE(governor.admit_request(0.0));
}

TEST(Governor, StreakOfCapacityFailuresTripsBreaker) {
  GovernorOptions options;
  options.breaker.failure_threshold = 3;
  OverloadGovernor governor(2, 5, options);
  for (int i = 0; i < 2; ++i) {
    governor.on_member_result(0, capacity_block());
  }
  EXPECT_TRUE(governor.allow_member(0));
  governor.on_member_result(0, capacity_block());
  EXPECT_FALSE(governor.allow_member(0));
  EXPECT_EQ(governor.breaker_state(0), BreakerState::kOpen);
  EXPECT_EQ(governor.open_breakers(), 1u);
  EXPECT_EQ(governor.stats().breaker_trips, 1u);
  EXPECT_TRUE(governor.allow_member(1));  // the other member is untouched
}

TEST(Governor, SuccessBreaksTheStreak) {
  GovernorOptions options;
  options.breaker.failure_threshold = 2;
  OverloadGovernor governor(1, 5, options);
  governor.on_member_result(0, capacity_block());
  governor.on_member_result(0, success());
  governor.on_member_result(0, capacity_block());
  EXPECT_TRUE(governor.allow_member(0));  // never two in a row
}

TEST(Governor, GiveUpTripsImmediately) {
  GovernorOptions options;
  options.breaker.failure_threshold = 5;
  OverloadGovernor governor(2, 5, options);
  governor.on_member_result(1, give_up());  // retransmit exhaustion: no streak needed
  EXPECT_EQ(governor.breaker_state(1), BreakerState::kOpen);
  EXPECT_EQ(governor.stats().breaker_trips, 1u);
}

TEST(Governor, ChurnTripsTheBreaker) {
  OverloadGovernor governor(3, 5);
  governor.on_member_churn(2);
  EXPECT_FALSE(governor.allow_member(2));
  EXPECT_EQ(governor.stats().breaker_trips, 1u);
  governor.on_member_churn(2);  // repeated churn on an Open breaker: no double count
  EXPECT_EQ(governor.stats().breaker_trips, 1u);
  EXPECT_THROW(governor.on_member_churn(3), std::invalid_argument);
}

TEST(Governor, ChurnIgnoredWhenBreakersDisabled) {
  GovernorOptions options;
  options.member_breakers = false;
  OverloadGovernor governor(2, 5, options);
  governor.on_member_churn(0);
  EXPECT_TRUE(governor.allow_member(0));
  EXPECT_EQ(governor.stats().breaker_trips, 0u);
}

TEST(Governor, CooldownTimerHalfOpensAndProbeCloses) {
  GovernorOptions options;
  options.breaker.failure_threshold = 1;
  options.breaker.cooldown_s = 10.0;
  OverloadGovernor governor(1, 5, options);
  des::Simulator simulator;
  governor.attach(simulator, [] { return true; });  // window timer fires once only
  governor.on_member_result(0, capacity_block());
  ASSERT_EQ(governor.breaker_state(0), BreakerState::kOpen);
  simulator.run_until(9.9);
  EXPECT_EQ(governor.breaker_state(0), BreakerState::kOpen);
  simulator.run_until(10.1);
  EXPECT_EQ(governor.breaker_state(0), BreakerState::kHalfOpen);
  EXPECT_TRUE(governor.allow_member(0));
  governor.on_member_result(0, success());  // the probe
  EXPECT_EQ(governor.breaker_state(0), BreakerState::kClosed);
  EXPECT_EQ(governor.stats().breaker_probes, 1u);
  EXPECT_EQ(governor.stats().breaker_closes, 1u);
}

TEST(Governor, FailedProbeReopensAndRunsAFreshCooldown) {
  GovernorOptions options;
  options.breaker.failure_threshold = 1;
  options.breaker.cooldown_s = 10.0;
  OverloadGovernor governor(1, 5, options);
  des::Simulator simulator;
  governor.attach(simulator, [] { return true; });
  governor.on_member_result(0, capacity_block());
  simulator.run_until(10.5);
  ASSERT_EQ(governor.breaker_state(0), BreakerState::kHalfOpen);
  governor.on_member_result(0, capacity_block());  // probe fails at t = 10.5
  EXPECT_EQ(governor.breaker_state(0), BreakerState::kOpen);
  EXPECT_EQ(governor.stats().breaker_trips, 2u);
  simulator.run_until(20.4);  // fresh cooldown ends at 20.5, not at 20.0
  EXPECT_EQ(governor.breaker_state(0), BreakerState::kOpen);
  simulator.run();
  EXPECT_EQ(governor.breaker_state(0), BreakerState::kHalfOpen);
}

TEST(Governor, StaleCooldownTimerCannotEndANewerTrip) {
  GovernorOptions options;
  options.breaker.failure_threshold = 1;
  options.breaker.cooldown_s = 10.0;
  OverloadGovernor governor(1, 5, options);
  des::Simulator simulator;
  governor.attach(simulator, [] { return true; });
  // Trip at t = 0 (cooldown due t = 10), probe-fail at t = 5 via churn after
  // a manual half-open is impossible here, so re-trip through the generation
  // path: cooldown fires at 10, probe fails at 10 -> new cooldown due 20.
  governor.on_member_result(0, capacity_block());
  simulator.run_until(10.0);
  governor.on_member_result(0, capacity_block());
  // The first timer is long gone; only the generation-2 timer may half-open.
  simulator.run_until(19.9);
  EXPECT_EQ(governor.breaker_state(0), BreakerState::kOpen);
  simulator.run_until(20.1);
  EXPECT_EQ(governor.breaker_state(0), BreakerState::kHalfOpen);
}

TEST(Governor, WindowTimerDrivesAimdOnTheKernel) {
  GovernorOptions options;
  options.window_s = 5.0;
  OverloadGovernor governor(2, 8, options);
  des::Simulator simulator;
  bool stop = false;
  governor.attach(simulator, [&stop] { return stop; });
  offer(governor, 10, 5);
  governor.note_utilization(1.0);
  simulator.run_until(5.0);  // first window closes hot
  EXPECT_EQ(governor.effective_max_tries(), 4u);
  EXPECT_EQ(governor.stats().windows, 1u);
  stop = true;  // drain: the timer fires once more, then stops rearming
  simulator.run();
  EXPECT_EQ(simulator.pending_events(), 0u);
}

TEST(Governor, OptionValidation) {
  const auto bad = [](auto mutate) {
    GovernorOptions options;
    mutate(options);
    EXPECT_THROW(OverloadGovernor(2, 5, options), std::invalid_argument);
  };
  bad([](GovernorOptions& o) { o.window_s = 0.0; });
  bad([](GovernorOptions& o) { o.min_tries = 0; });
  bad([](GovernorOptions& o) { o.hot_rejection_rate = 0.0; });
  bad([](GovernorOptions& o) { o.hot_rejection_rate = 1.5; });
  bad([](GovernorOptions& o) { o.hot_utilization = 0.0; });
  bad([](GovernorOptions& o) { o.cool_rejection_rate = 0.30; });  // not below hot
  bad([](GovernorOptions& o) { o.shed_budget_msgs_per_s = -1.0; });
  bad([](GovernorOptions& o) { o.shed_burst_msgs = -1.0; });
}

TEST(Governor, LifecycleValidation) {
  EXPECT_THROW(OverloadGovernor(0, 5), std::invalid_argument);  // empty group
  EXPECT_THROW(OverloadGovernor(2, 0), std::invalid_argument);  // R = 0
  OverloadGovernor governor(2, 5);
  des::Simulator simulator;
  governor.attach(simulator);
  EXPECT_THROW(governor.attach(simulator), std::invalid_argument);
}

TEST(AdaptiveRetrial, TracksTheGovernorsEffectiveBound) {
  OverloadGovernor governor(2, 8);
  const AdaptiveRetrialPolicy policy(governor);
  EXPECT_EQ(policy.max_attempts(), 8u);  // always the static ceiling
  EXPECT_TRUE(policy.keep_going(7));
  EXPECT_FALSE(policy.keep_going(8));
  offer(governor, 10, 5);
  governor.note_utilization(1.0);
  governor.advance_window();
  ASSERT_EQ(governor.effective_max_tries(), 4u);
  EXPECT_TRUE(policy.keep_going(3));
  EXPECT_FALSE(policy.keep_going(4));  // tightened live
  EXPECT_EQ(policy.max_attempts(), 8u);  // ceiling unchanged: spans stay sized
  EXPECT_EQ(policy.name(), "adaptive(R<=8)");
}

}  // namespace
}  // namespace anyqos::control
