#include "src/sim/metrics.h"

#include <gtest/gtest.h>

#include <stdexcept>

namespace anyqos::sim {
namespace {

TEST(MetricsCollector, IgnoresEverythingBeforeMeasurement) {
  MetricsCollector metrics(3);
  metrics.record_decision(true, 1, 4, 0);
  metrics.record_decision(false, 2, 8, 0);
  EXPECT_EQ(metrics.offered(), 0u);
  metrics.begin_measurement(100.0);
  metrics.record_decision(true, 1, 4, 2);
  EXPECT_EQ(metrics.offered(), 1u);
  EXPECT_EQ(metrics.admitted(), 1u);
}

TEST(MetricsCollector, RejectsOutOfRangeDestinationIndex) {
  MetricsCollector metrics(3);
  metrics.begin_measurement(0.0);
  metrics.record_decision(true, 1, 4, 1);
  // destination_index must index the group, for admissions and rejections
  // alike; a bad call must leave the collector untouched.
  EXPECT_THROW(metrics.record_decision(true, 1, 4, 3), std::invalid_argument);
  EXPECT_THROW(metrics.record_decision(false, 2, 8, 99), std::invalid_argument);
  EXPECT_EQ(metrics.offered(), 1u);
  EXPECT_EQ(metrics.admitted(), 1u);
  EXPECT_EQ(metrics.per_destination_admissions()[1], 1u);
  // The guard also applies before measurement starts (fail fast, not
  // fail-only-when-measuring).
  MetricsCollector warmup(2);
  EXPECT_THROW(warmup.record_decision(true, 1, 2, 5), std::invalid_argument);
  EXPECT_THROW(warmup.record_decision(true, 0, 2, 0), std::invalid_argument);
}

TEST(MetricsCollector, AdmissionProbability) {
  MetricsCollector metrics(2);
  metrics.begin_measurement(0.0);
  for (int i = 0; i < 100; ++i) {
    metrics.record_decision(i < 83, 1, 2, 0);
  }
  EXPECT_DOUBLE_EQ(metrics.admission_probability(), 0.83);
  EXPECT_EQ(metrics.offered(), 100u);
  EXPECT_EQ(metrics.admitted(), 83u);
}

TEST(MetricsCollector, AttemptStatistics) {
  MetricsCollector metrics(2);
  metrics.begin_measurement(0.0);
  metrics.record_decision(true, 1, 2, 0);
  metrics.record_decision(true, 2, 6, 1);
  metrics.record_decision(false, 2, 4, 0);
  EXPECT_DOUBLE_EQ(metrics.average_attempts(), (1.0 + 2.0 + 2.0) / 3.0);
  EXPECT_EQ(metrics.attempts_histogram().count(1), 1u);
  EXPECT_EQ(metrics.attempts_histogram().count(2), 2u);
  EXPECT_DOUBLE_EQ(metrics.average_messages(), 4.0);
}

TEST(MetricsCollector, PerDestinationTallyCountsAdmittedOnly) {
  MetricsCollector metrics(3);
  metrics.begin_measurement(0.0);
  metrics.record_decision(true, 1, 2, 1);
  metrics.record_decision(true, 1, 2, 1);
  metrics.record_decision(false, 3, 6, 2);  // rejected: not tallied
  metrics.record_decision(true, 1, 2, 0);
  const auto& per_dest = metrics.per_destination_admissions();
  EXPECT_EQ(per_dest[0], 1u);
  EXPECT_EQ(per_dest[1], 2u);
  EXPECT_EQ(per_dest[2], 0u);
}

TEST(MetricsCollector, ActiveFlowsTimeAverage) {
  MetricsCollector metrics(1);
  metrics.begin_measurement(0.0);
  metrics.record_active_flows(0.0, 0);
  metrics.record_active_flows(10.0, 4);   // 0 flows for [0,10), 4 for [10,20)
  EXPECT_DOUBLE_EQ(metrics.average_active_flows(20.0), 2.0);
}

TEST(MetricsCollector, ConfidenceIntervalCoversPointEstimate) {
  MetricsCollector metrics(2, 10);
  metrics.begin_measurement(0.0);
  for (unsigned i = 0; i < 1000; ++i) {
    // Irregular ~75% admission pattern: batch means must differ so the
    // interval has positive width.
    const bool admitted = ((i * 2654435761u) >> 16) % 4 != 0;
    metrics.record_decision(admitted, 1, 2, 0);
  }
  const auto ci = metrics.admission_ci(0.95);
  EXPECT_TRUE(ci.contains(metrics.admission_probability()));
  EXPECT_GT(ci.half_width, 0.0);
  EXPECT_LT(ci.half_width, 0.1);
}

TEST(MetricsCollector, CiBeforeReadyIsDegenerate) {
  MetricsCollector metrics(2, 10);
  metrics.begin_measurement(0.0);
  metrics.record_decision(true, 1, 2, 0);
  const auto ci = metrics.admission_ci(0.95);
  EXPECT_DOUBLE_EQ(ci.mean, 1.0);
  EXPECT_DOUBLE_EQ(ci.half_width, 0.0);
}

TEST(MetricsCollector, DroppedFlowsCounted) {
  MetricsCollector metrics(1);
  metrics.record_teardown(TeardownCause::kLinkFault);  // pre-measurement: ignored
  metrics.begin_measurement(0.0);
  metrics.record_teardown(TeardownCause::kLinkFault);
  metrics.record_teardown(TeardownCause::kLinkFault);
  EXPECT_EQ(metrics.dropped_flows(), 2u);
}

TEST(MetricsCollector, ZeroAttemptRejectionIsLegal) {
  // With every group member down (churn), a request is rejected without a
  // single destination attempt; the collector must accept that shape.
  MetricsCollector metrics(2);
  metrics.begin_measurement(0.0);
  metrics.record_decision(false, 0, 0, 0);
  EXPECT_EQ(metrics.offered(), 1u);
  EXPECT_EQ(metrics.admitted(), 0u);
  EXPECT_EQ(metrics.attempts_histogram().count(0), 1u);
  EXPECT_DOUBLE_EQ(metrics.average_attempts(), 0.0);
}

TEST(MetricsCollector, TeardownCausesCountedSeparately) {
  MetricsCollector metrics(1);
  metrics.record_teardown(TeardownCause::kChurn);  // pre-measurement: ignored
  metrics.begin_measurement(0.0);
  metrics.record_teardown(TeardownCause::kExplicit);
  metrics.record_teardown(TeardownCause::kExplicit);
  metrics.record_teardown(TeardownCause::kLinkFault);
  metrics.record_teardown(TeardownCause::kChurn);
  metrics.record_teardown(TeardownCause::kChurn);
  metrics.record_teardown(TeardownCause::kChurn);
  EXPECT_EQ(metrics.teardowns(TeardownCause::kExplicit), 2u);
  EXPECT_EQ(metrics.teardowns(TeardownCause::kLinkFault), 1u);
  EXPECT_EQ(metrics.teardowns(TeardownCause::kChurn), 3u);
  // Only involuntary teardowns feed the paper-facing dropped tally.
  EXPECT_EQ(metrics.dropped_flows(), 4u);
}

TEST(MetricsCollector, FailoverTalliedWhileMeasuringOnly) {
  MetricsCollector metrics(1);
  metrics.record_failover(true);  // pre-measurement: ignored
  metrics.begin_measurement(0.0);
  metrics.record_failover(true);
  metrics.record_failover(false);
  metrics.record_failover(true);
  EXPECT_EQ(metrics.failover_attempts(), 3u);
  EXPECT_EQ(metrics.failover_admitted(), 2u);
}

TEST(MetricsCollector, Validation) {
  EXPECT_THROW(MetricsCollector(0), std::invalid_argument);
  MetricsCollector metrics(2);
  metrics.begin_measurement(0.0);
  EXPECT_THROW(metrics.begin_measurement(1.0), std::invalid_argument);
  EXPECT_THROW(metrics.record_decision(true, 0, 0, 0), std::invalid_argument);
  EXPECT_THROW(metrics.record_decision(true, 1, 0, 5), std::invalid_argument);
}

}  // namespace
}  // namespace anyqos::sim
