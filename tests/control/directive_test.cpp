// Unit tests for the runtime-control directive layer: wire names,
// validation, the HTTP->DES mailbox, the ops log round trip, and the
// governor's clamping seam.
#include "src/control/directive.h"

#include <gtest/gtest.h>

#include <limits>
#include <sstream>
#include <stdexcept>

#include "src/control/governor.h"

namespace anyqos::control {
namespace {

TEST(Knobs, WireNamesRoundTrip) {
  for (const Knob knob : {Knob::kRetrialCeiling, Knob::kRetrialFloor, Knob::kShedBudget,
                          Knob::kShedBurst, Knob::kBreakerThreshold, Knob::kBreakerCooldown}) {
    const auto parsed = parse_knob(to_string(knob));
    ASSERT_TRUE(parsed.has_value()) << to_string(knob);
    EXPECT_EQ(*parsed, knob);
  }
  EXPECT_EQ(parse_knob("shed-budget"), Knob::kShedBudget);
  EXPECT_FALSE(parse_knob("shed_budget").has_value());
  EXPECT_FALSE(parse_knob("").has_value());
  EXPECT_FALSE(parse_knob("retries").has_value());
}

TEST(Validate, EnforcesPerKnobDomains) {
  // Integer >= 1 knobs.
  for (const Knob knob : {Knob::kRetrialCeiling, Knob::kRetrialFloor, Knob::kBreakerThreshold}) {
    EXPECT_FALSE(validate_directive(knob, 1.0).has_value());
    EXPECT_FALSE(validate_directive(knob, 7.0).has_value());
    EXPECT_TRUE(validate_directive(knob, 0.0).has_value());
    EXPECT_TRUE(validate_directive(knob, 2.5).has_value());
    EXPECT_TRUE(validate_directive(knob, -1.0).has_value());
  }
  // Non-negative real knobs (0 = off / derive).
  for (const Knob knob : {Knob::kShedBudget, Knob::kShedBurst}) {
    EXPECT_FALSE(validate_directive(knob, 0.0).has_value());
    EXPECT_FALSE(validate_directive(knob, 3.25).has_value());
    EXPECT_TRUE(validate_directive(knob, -0.5).has_value());
  }
  // Positive real knob.
  EXPECT_FALSE(validate_directive(Knob::kBreakerCooldown, 0.1).has_value());
  EXPECT_TRUE(validate_directive(Knob::kBreakerCooldown, 0.0).has_value());
  // Non-finite values never validate.
  EXPECT_TRUE(validate_directive(Knob::kShedBudget,
                                 std::numeric_limits<double>::infinity()).has_value());
  EXPECT_TRUE(validate_directive(Knob::kShedBudget,
                                 std::numeric_limits<double>::quiet_NaN()).has_value());
}

TEST(Mailbox, DrainsInPostOrderAndCounts) {
  DirectiveMailbox mailbox;
  EXPECT_TRUE(mailbox.drain().empty());
  mailbox.post({Knob::kShedBudget, 5.0});
  mailbox.post({Knob::kRetrialCeiling, 2.0});
  const auto drained = mailbox.drain();
  ASSERT_EQ(drained.size(), 2u);
  EXPECT_EQ(drained[0].knob, Knob::kShedBudget);
  EXPECT_EQ(drained[1].knob, Knob::kRetrialCeiling);
  EXPECT_TRUE(mailbox.drain().empty());  // drain takes everything
  EXPECT_EQ(mailbox.posted(), 2u);
}

TEST(OpsLog, WritesOneJsonObjectPerDirective) {
  std::ostringstream out;
  OpsLogWriter writer(out);
  writer.record(150.0, {Knob::kShedBudget, 5.0}, 5.0);
  writer.record(200.5, {Knob::kRetrialCeiling, 9.0}, 4.0);  // clamped apply
  EXPECT_EQ(out.str(),
            "{\"ops\":\"directive\",\"t\":150,\"knob\":\"shed-budget\",\"value\":5,"
            "\"applied\":5}\n"
            "{\"ops\":\"directive\",\"t\":200.5,\"knob\":\"retrial-ceiling\",\"value\":9,"
            "\"applied\":4}\n");
  EXPECT_EQ(writer.entries(), 2u);
}

TEST(OpsLog, RoundTripsThroughLoad) {
  std::ostringstream out;
  OpsLogWriter writer(out);
  // A time that needs full round-trip precision.
  writer.record(1.0 / 3.0, {Knob::kShedBurst, 0.1}, 0.1);
  writer.record(100.0, {Knob::kBreakerCooldown, 12.5}, 12.5);
  std::istringstream in(out.str());
  const std::vector<TimedDirective> replay = load_ops_log(in);
  ASSERT_EQ(replay.size(), 2u);
  EXPECT_EQ(replay[0].apply_at, 1.0 / 3.0);  // exact, not approximate
  EXPECT_EQ(replay[0].directive.knob, Knob::kShedBurst);
  EXPECT_EQ(replay[0].directive.value, 0.1);
  EXPECT_EQ(replay[1].apply_at, 100.0);
}

TEST(OpsLog, LoadRejectsMalformedAndOutOfOrderEntries) {
  {
    std::istringstream in(
        "{\"ops\":\"directive\",\"t\":10,\"knob\":\"nope\",\"value\":1,\"applied\":1}\n");
    EXPECT_THROW(load_ops_log(in), std::invalid_argument);
  }
  {
    std::istringstream in("not json\n");
    EXPECT_THROW(load_ops_log(in), std::invalid_argument);
  }
  {
    // Valid knob, invalid value for its domain.
    std::istringstream in(
        "{\"ops\":\"directive\",\"t\":10,\"knob\":\"retrial-ceiling\",\"value\":0,"
        "\"applied\":0}\n");
    EXPECT_THROW(load_ops_log(in), std::invalid_argument);
  }
  {
    std::istringstream in(
        "{\"ops\":\"directive\",\"t\":20,\"knob\":\"shed-budget\",\"value\":1,\"applied\":1}\n"
        "{\"ops\":\"directive\",\"t\":10,\"knob\":\"shed-budget\",\"value\":2,\"applied\":2}\n");
    EXPECT_THROW(load_ops_log(in), std::invalid_argument);
  }
  // Each line below would read as t=5 value=3 to a reader that searched for
  // the fields by substring. The reader takes exactly the writer's five keys,
  // each with its JSON type: no duplicate key, trailing bytes, quoted
  // number, extra key, or non-JSON line gets through.
  for (const char* line : {
           R"({"ops":"directive","t":5,"t":7,"knob":"shed-budget","value":3,"applied":3})",
           R"({"ops":"directive","t":5,"knob":"shed-budget","value":3,"applied":3} x)",
           R"({"ops":"directive","t":"5","knob":"shed-budget","value":"3","applied":"3"})",
           R"({"ops":"directive","t":5,"knob":"shed-budget","value":3,"applied":3,"note":"x"})",
           R"(directive "ops":"directive" "t":5, "knob":"shed-budget" "value":3})"}) {
    SCOPED_TRACE(line);
    std::istringstream in(line);
    EXPECT_THROW(load_ops_log(in), std::invalid_argument);
  }
}

TEST(GovernorDirectives, CeilingClampsToBindTimeR) {
  OverloadGovernor governor(3, 4);
  // Requests above the construction-time R clamp down: the auditor and
  // span budgets were sized against R = 4 and stay valid.
  EXPECT_EQ(governor.apply_directive({Knob::kRetrialCeiling, 99.0}), 4.0);
  EXPECT_EQ(governor.max_tries_ceiling(), 4u);
  EXPECT_EQ(governor.apply_directive({Knob::kRetrialCeiling, 2.0}), 2.0);
  EXPECT_EQ(governor.max_tries_ceiling(), 2u);
  // Tightening the ceiling drags the floor and effective bound under it.
  EXPECT_LE(governor.min_tries_floor(), 2u);
  EXPECT_LE(governor.effective_max_tries(), 2u);
}

TEST(GovernorDirectives, FloorClampsToCurrentCeiling) {
  OverloadGovernor governor(3, 5);
  EXPECT_EQ(governor.apply_directive({Knob::kRetrialFloor, 99.0}), 5.0);
  EXPECT_EQ(governor.min_tries_floor(), 5u);
  EXPECT_EQ(governor.effective_max_tries(), 5u);  // raised to the floor
  EXPECT_EQ(governor.apply_directive({Knob::kRetrialFloor, 1.0}), 1.0);
  EXPECT_EQ(governor.min_tries_floor(), 1u);
}

TEST(GovernorDirectives, ShedBudgetEngagesAndDisengagesTheBucket) {
  OverloadGovernor governor(2, 2);  // defaults: shedding off
  EXPECT_FALSE(governor.shedding());
  EXPECT_EQ(governor.apply_directive({Knob::kShedBudget, 5.0}), 5.0);
  ASSERT_TRUE(governor.shedding());
  // A fresh bucket starts full: depth defaults to 2 x budget.
  EXPECT_EQ(governor.shed_tokens(0.0), 10.0);
  EXPECT_EQ(governor.apply_directive({Knob::kShedBurst, 3.0}), 3.0);
  EXPECT_EQ(governor.shed_tokens(0.0), 3.0);
  EXPECT_EQ(governor.apply_directive({Knob::kShedBudget, 0.0}), 0.0);
  EXPECT_FALSE(governor.shedding());
}

TEST(GovernorDirectives, BreakerKnobsPropagate) {
  OverloadGovernor governor(2, 2);
  EXPECT_EQ(governor.apply_directive({Knob::kBreakerThreshold, 2.0}), 2.0);
  EXPECT_EQ(governor.options().breaker.failure_threshold, 2u);
  // Two consecutive failures now trip a member (default threshold is 5).
  signaling::ReservationResult rejected;
  rejected.admitted = false;
  rejected.blocking_link = 3;  // a definitive capacity block, not a give-up
  governor.on_member_result(0, rejected);
  governor.on_member_result(0, rejected);
  EXPECT_EQ(governor.breaker_state(0), BreakerState::kOpen);
  EXPECT_EQ(governor.apply_directive({Knob::kBreakerCooldown, 7.5}), 7.5);
  EXPECT_EQ(governor.options().breaker.cooldown_s, 7.5);
}

TEST(GovernorDirectives, InvalidDirectiveThrows) {
  OverloadGovernor governor(2, 2);
  EXPECT_THROW(governor.apply_directive({Knob::kRetrialCeiling, 0.0}), std::invalid_argument);
  EXPECT_THROW(governor.apply_directive({Knob::kShedBudget, -1.0}), std::invalid_argument);
}

}  // namespace
}  // namespace anyqos::control
