#include "src/core/history.h"

#include <gtest/gtest.h>

#include <cmath>
#include <vector>

#include "src/core/weights.h"

namespace anyqos::core {
namespace {

constexpr double kTol = 1e-12;

// Runs the in-place update on a copy of `w` and returns the result.
std::vector<double> apply(const WeightVector& w, const AdmissionHistory& h, double alpha) {
  std::vector<double> updated = w.values();
  HistoryDiscount discount(alpha);
  apply_history(updated, h, discount);
  return updated;
}

bool sums_to_one(const std::vector<double>& weights, double tolerance) {
  double total = 0.0;
  for (const double w : weights) {
    if (w < 0.0) {
      return false;
    }
    total += w;
  }
  return std::abs(total - 1.0) <= tolerance;
}

TEST(AdmissionHistory, InitializesToZeroPerEq6) {
  const AdmissionHistory h(4);
  for (std::size_t i = 0; i < 4; ++i) {
    EXPECT_EQ(h.consecutive_failures(i), 0u);
  }
}

TEST(AdmissionHistory, FailureIncrementsPerEq7) {
  AdmissionHistory h(3);
  h.record(1, false);
  h.record(1, false);
  h.record(1, false);
  EXPECT_EQ(h.consecutive_failures(1), 3u);
  EXPECT_EQ(h.consecutive_failures(0), 0u);
}

TEST(AdmissionHistory, SuccessResetsPerEq7) {
  AdmissionHistory h(2);
  h.record(0, false);
  h.record(0, false);
  h.record(0, true);
  EXPECT_EQ(h.consecutive_failures(0), 0u);
}

TEST(AdmissionHistory, ResetClearsAll) {
  AdmissionHistory h(2);
  h.record(0, false);
  h.record(1, false);
  h.reset();
  EXPECT_EQ(h.consecutive_failures(0), 0u);
  EXPECT_EQ(h.consecutive_failures(1), 0u);
}

TEST(AdmissionHistory, BoundsChecked) {
  AdmissionHistory h(2);
  EXPECT_THROW(h.record(2, true), std::invalid_argument);
  EXPECT_THROW(static_cast<void>(h.consecutive_failures(5)), std::invalid_argument);
  EXPECT_THROW(AdmissionHistory(0), std::invalid_argument);
}

TEST(ApplyHistory, CleanHistoryLeavesWeightsUnchanged) {
  const WeightVector w = WeightVector::normalized({0.5, 0.3, 0.2});
  const AdmissionHistory h(3);
  const std::vector<double> updated = apply(w, h, 0.5);
  for (std::size_t i = 0; i < 3; ++i) {
    EXPECT_NEAR(updated[i], w.at(i), kTol);
  }
}

TEST(ApplyHistory, AlphaOneDisablesHistoryImpact) {
  // "if alpha is 1, no impact will the local admission history have."
  const WeightVector w = WeightVector::normalized({0.5, 0.3, 0.2});
  AdmissionHistory h(3);
  h.record(0, false);
  h.record(0, false);
  const std::vector<double> updated = apply(w, h, 1.0);
  for (std::size_t i = 0; i < 3; ++i) {
    EXPECT_NEAR(updated[i], w.at(i), kTol);
  }
}

TEST(ApplyHistory, AlphaZeroMaximallyPunishes) {
  // "If alpha is 0, the local admission history has the maximum impact."
  const WeightVector w = WeightVector::normalized({0.5, 0.3, 0.2});
  AdmissionHistory h(3);
  h.record(0, false);
  const std::vector<double> updated = apply(w, h, 0.0);
  EXPECT_NEAR(updated[0], 0.0, kTol);
  // The failing member's mass moved to the clean ones, renormalized.
  EXPECT_TRUE(sums_to_one(updated, kTol));
  EXPECT_GT(updated[1], w.at(1));
  EXPECT_GT(updated[2], w.at(2));
}

TEST(ApplyHistory, MatchesEquations8To10ByHand) {
  // W = (0.5, 0.3, 0.2), h = (1, 0, 2), alpha = 0.5.
  // AW = 0.5*(1-0.5) + 0 + 0.2*(1-0.25) = 0.25 + 0.15 = 0.4   (eq. 8)
  // W'_0 = 0.5*0.5 = 0.25; W'_1 = 0.3 + 0.4/1 = 0.7; W'_2 = 0.2*0.25 = 0.05 (eq. 9)
  // sum = 1.0 exactly, so eq. 10 leaves them as is.
  const WeightVector w = WeightVector::normalized({0.5, 0.3, 0.2});
  AdmissionHistory h(3);
  h.record(0, false);
  h.record(2, false);
  h.record(2, false);
  const std::vector<double> updated = apply(w, h, 0.5);
  EXPECT_NEAR(updated[0], 0.25, kTol);
  EXPECT_NEAR(updated[1], 0.70, kTol);
  EXPECT_NEAR(updated[2], 0.05, kTol);
}

TEST(ApplyHistory, AllFailingRenormalizesByDiscount) {
  // M = 0: no redistribution target; weights scale by alpha^{h_i} then
  // renormalize.
  const WeightVector w = WeightVector::normalized({0.5, 0.5});
  AdmissionHistory h(2);
  h.record(0, false);                   // h_0 = 1
  h.record(1, false);
  h.record(1, false);                   // h_1 = 2
  const std::vector<double> updated = apply(w, h, 0.5);
  // raw: 0.25, 0.125 -> normalized 2/3, 1/3.
  EXPECT_NEAR(updated[0], 2.0 / 3.0, kTol);
  EXPECT_NEAR(updated[1], 1.0 / 3.0, kTol);
}

TEST(ApplyHistory, AlphaZeroAllFailingKeepsPriorWeights) {
  // Degenerate corner: every weight would become zero; the update is a no-op.
  const WeightVector w = WeightVector::normalized({0.7, 0.3});
  AdmissionHistory h(2);
  h.record(0, false);
  h.record(1, false);
  const std::vector<double> updated = apply(w, h, 0.0);
  EXPECT_EQ(updated, w.values());  // untouched, bit for bit
}

TEST(ApplyHistory, ParameterValidation) {
  EXPECT_THROW(HistoryDiscount(-0.1), std::invalid_argument);
  EXPECT_THROW(HistoryDiscount(1.1), std::invalid_argument);
  std::vector<double> w = WeightVector::uniform(2).values();
  const AdmissionHistory wrong_size(3);
  HistoryDiscount discount(0.5);
  EXPECT_THROW(apply_history(w, wrong_size, discount), std::invalid_argument);
}

TEST(HistoryDiscount, EqualsStdPowInsideAndBeyondItsTable) {
  for (const double alpha : {0.0, 0.3, 0.5, 0.9, 1.0}) {
    HistoryDiscount discount(alpha);
    EXPECT_EQ(discount(0), 1.0);
    // Out of order, so a late small h reads an entry an early large h filled.
    for (const std::size_t h : {5u, 1u, 31u, 32u, 200u, 3u, 33u, 0u, 17u}) {
      EXPECT_EQ(discount(h), std::pow(alpha, static_cast<double>(h))) << alpha << "^" << h;
    }
  }
}

// --- Property sweep over alpha: normalization and monotone punishment. ---

class HistoryAlphaProperty : public ::testing::TestWithParam<double> {};

TEST_P(HistoryAlphaProperty, UpdateKeepsNormalizationAndPunishesFailures) {
  const double alpha = GetParam();
  const WeightVector w = WeightVector::normalized({0.4, 0.3, 0.2, 0.1});
  AdmissionHistory h(4);
  h.record(1, false);
  h.record(3, false);
  h.record(3, false);
  const std::vector<double> updated = apply(w, h, alpha);
  EXPECT_TRUE(sums_to_one(updated, 1e-9));
  if (alpha < 1.0) {
    // Failing members lose weight; clean members gain (or keep) weight.
    EXPECT_LT(updated[1], w.at(1) + kTol);
    EXPECT_LT(updated[3], w.at(3) + kTol);
    EXPECT_GE(updated[0], w.at(0) - kTol);
    EXPECT_GE(updated[2], w.at(2) - kTol);
    // The member with more consecutive failures is punished at least as hard
    // (relative to its base weight).
    EXPECT_LE(updated[3] / w.at(3), updated[1] / w.at(1) + kTol);
  }
}

INSTANTIATE_TEST_SUITE_P(Alphas, HistoryAlphaProperty,
                         ::testing::Values(0.0, 0.1, 0.25, 0.5, 0.75, 0.9, 1.0));

}  // namespace
}  // namespace anyqos::core
