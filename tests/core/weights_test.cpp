#include "src/core/weights.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <cmath>
#include <limits>
#include <memory>
#include <span>
#include <vector>

namespace anyqos::core {
namespace {

constexpr double kTol = 1e-12;

bool sums_to_one(std::span<const double> weights) {
  double total = 0.0;
  for (const double w : weights) {
    if (w < 0.0) {
      return false;
    }
    total += w;
  }
  return std::abs(total - 1.0) <= kTol;
}

bool all_zero(std::span<const double> weights) {
  return std::all_of(weights.begin(), weights.end(), [](double w) { return w == 0.0; });
}

TEST(WeightVector, UniformSatisfiesEq2) {
  const WeightVector w = WeightVector::uniform(5);
  ASSERT_EQ(w.size(), 5u);
  for (std::size_t i = 0; i < 5; ++i) {
    EXPECT_NEAR(w.at(i), 0.2, kTol);  // W_i = 1/K
  }
  EXPECT_TRUE(w.normalized_within(kTol));
}

TEST(WeightVector, UniformRejectsEmpty) {
  EXPECT_THROW(WeightVector::uniform(0), std::invalid_argument);
}

TEST(WeightVector, InverseDistanceMatchesEq4) {
  const std::array<std::size_t, 3> distances = {1, 2, 4};
  const WeightVector w = WeightVector::inverse_distance(distances);
  // 1/D_i normalized: (1, 1/2, 1/4) / 1.75.
  EXPECT_NEAR(w.at(0), 1.0 / 1.75, kTol);
  EXPECT_NEAR(w.at(1), 0.5 / 1.75, kTol);
  EXPECT_NEAR(w.at(2), 0.25 / 1.75, kTol);
  EXPECT_TRUE(w.normalized_within(kTol));
}

TEST(WeightVector, InverseDistanceShorterIsHeavier) {
  const std::array<std::size_t, 4> distances = {5, 1, 3, 2};
  const WeightVector w = WeightVector::inverse_distance(distances);
  EXPECT_GT(w.at(1), w.at(3));
  EXPECT_GT(w.at(3), w.at(2));
  EXPECT_GT(w.at(2), w.at(0));
}

TEST(WeightVector, ZeroDistanceTreatedAsOne) {
  // Co-located member: weight stays finite and maximal.
  const std::array<std::size_t, 2> distances = {0, 2};
  const WeightVector w = WeightVector::inverse_distance(distances);
  EXPECT_NEAR(w.at(0), 1.0 / 1.5, kTol);
  EXPECT_GT(w.at(0), w.at(1));
}

TEST(WeightVector, BandwidthDistanceMatchesEq12) {
  std::array<double, 3> w = {10.0e6, 5.0e6, 20.0e6};  // B_i, turned into W_i in place
  const std::array<std::size_t, 3> distances = {2, 1, 4};
  bandwidth_distance_weights(w, distances);
  const double raw0 = 10.0e6 / 2;
  const double raw1 = 5.0e6 / 1;
  const double raw2 = 20.0e6 / 4;
  const double total = raw0 + raw1 + raw2;
  EXPECT_NEAR(w[0], raw0 / total, kTol);
  EXPECT_NEAR(w[1], raw1 / total, kTol);
  EXPECT_NEAR(w[2], raw2 / total, kTol);
}

TEST(WeightVector, AllZeroBandwidthFallsBackToDistance) {
  std::array<double, 2> w = {0.0, 0.0};
  const std::array<std::size_t, 2> distances = {1, 3};
  bandwidth_distance_weights(w, distances);
  const WeightVector expect = WeightVector::inverse_distance(distances);
  EXPECT_NEAR(w[0], expect.at(0), kTol);
  EXPECT_NEAR(w[1], expect.at(1), kTol);
}

TEST(WeightVector, MismatchedLengthsRejected) {
  std::array<double, 2> bandwidths = {1.0, 2.0};
  const std::array<std::size_t, 3> distances = {1, 2, 3};
  EXPECT_THROW(bandwidth_distance_weights(bandwidths, distances), std::invalid_argument);
  std::array<double, 3> negative = {1.0, -2.0, 1.0};
  EXPECT_THROW(bandwidth_distance_weights(negative, distances), std::invalid_argument);
  std::array<double, 3> nan = {1.0, std::numeric_limits<double>::quiet_NaN(), 1.0};
  EXPECT_THROW(bandwidth_distance_weights(nan, distances), std::invalid_argument);
}

TEST(WeightVector, NormalizedScalesArbitraryInput) {
  const WeightVector w = WeightVector::normalized({2.0, 6.0});
  EXPECT_NEAR(w.at(0), 0.25, kTol);
  EXPECT_NEAR(w.at(1), 0.75, kTol);
}

TEST(WeightVector, NormalizedRejectsBadInput) {
  EXPECT_THROW(WeightVector::normalized({}), std::invalid_argument);
  EXPECT_THROW(WeightVector::normalized({0.0, 0.0}), std::invalid_argument);
  EXPECT_THROW(WeightVector::normalized({-1.0, 2.0}), std::invalid_argument);
}

TEST(WeightVector, MaskedRenormalizes) {
  const WeightVector w = WeightVector::normalized({1.0, 2.0, 1.0});
  const std::array<bool, 3> mask = {false, true, false};
  std::array<double, 3> m{};
  EXPECT_TRUE(mask_weights(w.values(), mask, m));
  EXPECT_NEAR(m[0], 0.5, kTol);
  EXPECT_DOUBLE_EQ(m[1], 0.0);
  EXPECT_NEAR(m[2], 0.5, kTol);
  EXPECT_TRUE(sums_to_one(m));
}

TEST(WeightVector, MaskedAllExcludedIsZero) {
  const WeightVector w = WeightVector::uniform(2);
  const std::array<bool, 2> mask = {true, true};
  std::array<double, 2> m = {7.0, 7.0};  // stale scratch is overwritten
  EXPECT_FALSE(mask_weights(w.values(), mask, m));
  EXPECT_TRUE(all_zero(m));
  EXPECT_FALSE(all_zero(w.values()));
}

TEST(WeightVector, MaskedMismatchedLengthRejected) {
  const WeightVector w = WeightVector::uniform(3);
  const std::array<bool, 2> mask = {false, false};
  std::array<double, 3> m{};
  EXPECT_THROW(static_cast<void>(mask_weights(w.values(), mask, m)), std::invalid_argument);
  const std::array<bool, 3> full_mask = {false, false, false};
  std::array<double, 2> short_out{};
  EXPECT_THROW(static_cast<void>(mask_weights(w.values(), full_mask, short_out)),
               std::invalid_argument);
}

// --- Property sweep: constraint (1) holds for every construction across
// --- many shapes (the paper's invariant sum W_i = 1).

class WeightNormalizationProperty : public ::testing::TestWithParam<std::size_t> {};

TEST_P(WeightNormalizationProperty, AllConstructionsSumToOne) {
  const std::size_t k = GetParam();
  EXPECT_TRUE(WeightVector::uniform(k).normalized_within(kTol));

  std::vector<std::size_t> distances(k);
  for (std::size_t i = 0; i < k; ++i) {
    distances[i] = (i * 7 + 1) % 9 + 1;
  }
  EXPECT_TRUE(WeightVector::inverse_distance(distances).normalized_within(kTol));

  std::vector<double> eq12(k);  // B_i, turned into W_i in place
  for (std::size_t i = 0; i < k; ++i) {
    eq12[i] = static_cast<double>((i * 13) % 5) * 1.0e6;  // some zeros
  }
  bandwidth_distance_weights(eq12, distances);
  EXPECT_TRUE(sums_to_one(eq12));

  // Masking any single member keeps the rest normalized.
  const WeightVector w = WeightVector::inverse_distance(distances);
  std::vector<double> m(k);
  for (std::size_t excluded = 0; excluded < k; ++excluded) {
    std::unique_ptr<bool[]> mask(new bool[k]());
    mask[excluded] = true;
    const bool nonzero = mask_weights(w.values(), std::span<const bool>(mask.get(), k), m);
    if (k > 1) {
      EXPECT_TRUE(nonzero);
      EXPECT_TRUE(sums_to_one(m));
      EXPECT_DOUBLE_EQ(m[excluded], 0.0);
    } else {
      EXPECT_FALSE(nonzero);
      EXPECT_TRUE(all_zero(m));
    }
  }
}

INSTANTIATE_TEST_SUITE_P(GroupSizes, WeightNormalizationProperty,
                         ::testing::Values(1, 2, 3, 5, 8, 16, 64));

}  // namespace
}  // namespace anyqos::core
