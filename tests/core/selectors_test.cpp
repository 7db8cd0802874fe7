#include "src/core/selectors.h"

#include <gtest/gtest.h>

#include <array>
#include <memory>
#include <vector>

#include "src/core/admission.h"
#include "src/net/topologies.h"

namespace anyqos::core {
namespace {

// Line 0-1-2-3-4: from source 0 the members {1, 2, 4} sit at distances 1,2,4.
struct Fixture {
  net::Topology topo = net::topologies::line(5);
  AnycastGroup group{"g", {1, 2, 4}};
  net::RouteTable routes{topo, {1, 2, 4}};
  net::BandwidthLedger ledger{topo, 0.2};
  signaling::MessageCounter counter;
  signaling::ProbeService probe{ledger, counter};
  des::RandomStream rng{12345};

  SelectorEnvironment env(double alpha = 0.5, bool mask = false) {
    SelectorEnvironment e;
    e.source = 0;
    e.group = &group;
    e.routes = &routes;
    e.probe = &probe;
    e.alpha = alpha;
    e.wdb_mask_infeasible = mask;
    e.flow_bandwidth = 64'000.0;
    return e;
  }
};

std::array<bool, 3> none_tried() { return {false, false, false}; }

TEST(EvenDistribution, WeightsAreUniform) {
  EvenDistributionSelector selector(4);
  const auto w = selector.weights();
  ASSERT_EQ(w.size(), 4u);
  for (const double x : w) {
    EXPECT_DOUBLE_EQ(x, 0.25);
  }
  EXPECT_EQ(selector.name(), "ED");
}

TEST(EvenDistribution, EmpiricalSelectionIsUniform) {
  Fixture f;
  EvenDistributionSelector selector(3);
  std::array<int, 3> counts{};
  const auto tried = none_tried();
  for (int i = 0; i < 30'000; ++i) {
    ++counts[*selector.select(tried, f.rng)];
  }
  for (const int c : counts) {
    EXPECT_NEAR(c / 30'000.0, 1.0 / 3.0, 0.02);
  }
}

TEST(EvenDistribution, ExcludesTriedMembers) {
  Fixture f;
  EvenDistributionSelector selector(3);
  std::array<bool, 3> tried = {true, false, true};
  for (int i = 0; i < 100; ++i) {
    EXPECT_EQ(*selector.select(tried, f.rng), 1u);
  }
}

TEST(EvenDistribution, AllTriedReturnsNullopt) {
  Fixture f;
  EvenDistributionSelector selector(3);
  const std::array<bool, 3> tried = {true, true, true};
  EXPECT_FALSE(selector.select(tried, f.rng).has_value());
}

TEST(DistanceHistory, InitialWeightsAreInverseDistance) {
  Fixture f;
  DistanceHistorySelector selector(0, f.routes, 0.5);
  const auto w = selector.weights();
  // distances 1, 2, 4 -> weights (1, .5, .25)/1.75.
  EXPECT_NEAR(w[0], 1.0 / 1.75, 1e-12);
  EXPECT_NEAR(w[1], 0.5 / 1.75, 1e-12);
  EXPECT_NEAR(w[2], 0.25 / 1.75, 1e-12);
  EXPECT_EQ(selector.name(), "WD/D+H");
  EXPECT_DOUBLE_EQ(selector.alpha(), 0.5);
}

TEST(DistanceHistory, FailuresShiftWeightAway) {
  Fixture f;
  DistanceHistorySelector selector(0, f.routes, 0.5);
  const double before = selector.weights()[0];
  selector.report(0, false);
  selector.report(0, false);
  // Trigger the pre-selection weight update.
  (void)selector.select(none_tried(), f.rng);
  const double after = selector.weights()[0];
  EXPECT_LT(after, before);
  EXPECT_EQ(selector.history().consecutive_failures(0), 2u);
}

TEST(DistanceHistory, SuccessHealsHistory) {
  Fixture f;
  DistanceHistorySelector selector(0, f.routes, 0.5);
  selector.report(0, false);
  selector.report(0, true);
  EXPECT_EQ(selector.history().consecutive_failures(0), 0u);
}

TEST(DistanceHistory, PersistentFailureDrivesSelectionElsewhere) {
  Fixture f;
  DistanceHistorySelector selector(0, f.routes, 0.25);
  // Simulate member 0 persistently blocked.
  for (int i = 0; i < 8; ++i) {
    selector.report(0, false);
  }
  std::array<int, 3> counts{};
  const auto tried = none_tried();
  for (int i = 0; i < 5000; ++i) {
    ++counts[*selector.select(tried, f.rng)];
  }
  // Member 0 started with the LARGEST weight (shortest route); after repeated
  // failures it must be selected less often than either alternative.
  EXPECT_LT(counts[0], counts[1]);
  EXPECT_LT(counts[0], counts[2]);
}

TEST(DistanceHistory, WeightsRemainNormalizedThroughChurn) {
  Fixture f;
  DistanceHistorySelector selector(0, f.routes, 0.5);
  const auto tried = none_tried();
  for (int i = 0; i < 500; ++i) {
    const auto idx = *selector.select(tried, f.rng);
    selector.report(idx, i % 3 == 0);
    double sum = 0.0;
    for (const double w : selector.weights()) {
      EXPECT_GE(w, 0.0);
      sum += w;
    }
    EXPECT_NEAR(sum, 1.0, 1e-9);
  }
}

TEST(DistanceBandwidth, WeightsFollowEq12) {
  Fixture f;
  DistanceBandwidthSelector selector(0, f.routes, f.probe, false, 64'000.0);
  // All links idle: B_i = 20 Mbit for every route; weights ∝ 1/D_i.
  const auto w = selector.weights();
  EXPECT_NEAR(w[0], 1.0 / 1.75, 1e-9);
  EXPECT_NEAR(w[1], 0.5 / 1.75, 1e-9);
  EXPECT_NEAR(w[2], 0.25 / 1.75, 1e-9);
  EXPECT_EQ(selector.name(), "WD/D+B");
}

TEST(DistanceBandwidth, LoadedRouteLosesWeight) {
  Fixture f;
  DistanceBandwidthSelector selector(0, f.routes, f.probe, false, 64'000.0);
  // Consume 75% of the first link (shared by every route from source 0).
  net::Path first_link;
  first_link.source = 0;
  first_link.destination = 1;
  first_link.links = {*f.topo.find_link(0, 1)};
  ASSERT_TRUE(f.ledger.reserve(first_link, 15.0e6));
  // Additionally load the 1->2 link down to 1 Mbit so the routes past node 1
  // bottleneck below member 0's route.
  net::Path second_link;
  second_link.source = 1;
  second_link.destination = 2;
  second_link.links = {*f.topo.find_link(1, 2)};
  ASSERT_TRUE(f.ledger.reserve(second_link, 19.0e6));
  const auto w = selector.weights();
  // Route to member 0 (node 1): bottleneck 5 Mbit, D=1 -> B/D = 5.0
  // Route to member 1 (node 2): bottleneck 1 Mbit, D=2 -> B/D = 0.5
  // Route to member 2 (node 4): bottleneck 1 Mbit, D=4 -> B/D = 0.25
  const double total = 5.0 + 0.5 + 0.25;
  EXPECT_NEAR(w[0], 5.0 / total, 1e-9);
  EXPECT_NEAR(w[1], 0.5 / total, 1e-9);
  EXPECT_NEAR(w[2], 0.25 / total, 1e-9);
}

TEST(DistanceBandwidth, ProbesChargeMessages) {
  Fixture f;
  DistanceBandwidthSelector selector(0, f.routes, f.probe, false, 64'000.0);
  const auto before = f.counter.total();
  (void)selector.select(none_tried(), f.rng);
  // Probing routes of length 1, 2, 4 = 7 links, out and back.
  EXPECT_EQ(f.counter.total() - before, 14u);
}

TEST(DistanceBandwidth, MaskingZeroesInfeasibleMembers) {
  Fixture f;
  DistanceBandwidthSelector selector(0, f.routes, f.probe, true, 64'000.0);
  // Saturate link 1->2: members at nodes 2 and 4 become infeasible.
  net::Path second_link;
  second_link.source = 1;
  second_link.destination = 2;
  second_link.links = {*f.topo.find_link(1, 2)};
  ASSERT_TRUE(f.ledger.reserve(second_link, 20.0e6 - 32'000.0));
  const auto w = selector.weights();
  EXPECT_NEAR(w[0], 1.0, 1e-9);
  EXPECT_DOUBLE_EQ(w[1], 0.0);
  EXPECT_DOUBLE_EQ(w[2], 0.0);
  const auto tried = none_tried();
  for (int i = 0; i < 50; ++i) {
    EXPECT_EQ(*selector.select(tried, f.rng), 0u);
  }
}

TEST(DistanceBandwidth, AllInfeasibleMaskedFallsBackToUniformOverUntried) {
  Fixture f;
  DistanceBandwidthSelector selector(0, f.routes, f.probe, true, 64'000.0);
  // Saturate the first link: every member infeasible.
  net::Path first_link;
  first_link.source = 0;
  first_link.destination = 1;
  first_link.links = {*f.topo.find_link(0, 1)};
  ASSERT_TRUE(f.ledger.reserve(first_link, 20.0e6 - 32'000.0));
  // Selection still returns something (the DAC loop then fails and retries).
  const auto idx = selector.select(none_tried(), f.rng);
  ASSERT_TRUE(idx.has_value());
  EXPECT_LT(*idx, 3u);
}

TEST(DistanceBandwidth, ColocatedMemberTakesAllWeightUntilTried) {
  // Line 0-1-2-3, source 0 is itself a member: its route has no links, so
  // B = +inf and eq. (12)'s limit gives it all the weight.
  const net::Topology topo = net::topologies::line(4);
  const AnycastGroup group("g", {0, 2, 3});
  const net::RouteTable routes(topo, {0, 2, 3});
  net::BandwidthLedger ledger(topo, 0.2);
  signaling::MessageCounter counter;
  signaling::ProbeService probe(ledger, counter);
  DistanceBandwidthSelector selector(0, routes, probe, false, 64'000.0);
  des::RandomStream rng(7);
  EXPECT_EQ(selector.weights(), (std::vector<double>{1.0, 0.0, 0.0}));
  // Once it is tried, the others keep eq. (12): (1/2) / (1/2 + 1/3) = 0.6.
  std::array<int, 3> counts{};
  for (int i = 0; i < 6'000; ++i) {
    ++counts[*selector.select(std::array<bool, 3>{true, false, false}, rng)];
  }
  EXPECT_EQ(counts[0], 0);
  EXPECT_NEAR(counts[1] / 6'000.0, 0.6, 0.03);
  // The DAC loop admits at the source's own router, over zero links.
  signaling::ReservationProtocol rsvp(ledger, counter);
  AdmissionController controller(0, group, routes, rsvp,
                                 make_selector(SelectionAlgorithm::kDistanceBandwidth,
                                               {0, &group, &routes, &probe}),
                                 std::make_unique<CounterRetrialPolicy>(2));
  const AdmissionDecision decision = controller.admit({0, 64'000.0}, rng);
  ASSERT_TRUE(decision.admitted);
  EXPECT_EQ(*decision.destination_index, 0u);
  EXPECT_TRUE(decision.route->empty());
}

TEST(ShortestPathPolicy, AlwaysNearestFirst) {
  Fixture f;
  ShortestPathSelector selector(0, f.routes);
  const auto tried = none_tried();
  for (int i = 0; i < 10; ++i) {
    EXPECT_EQ(*selector.select(tried, f.rng), 0u);  // member at distance 1
  }
  EXPECT_EQ(selector.name(), "SP");
  const auto w = selector.weights();
  EXPECT_DOUBLE_EQ(w[0], 1.0);
  EXPECT_DOUBLE_EQ(w[1], 0.0);
}

TEST(ShortestPathPolicy, WalksDistanceOrderUnderMask) {
  Fixture f;
  ShortestPathSelector selector(0, f.routes);
  std::array<bool, 3> tried = {true, false, false};
  EXPECT_EQ(*selector.select(tried, f.rng), 1u);
  tried[1] = true;
  EXPECT_EQ(*selector.select(tried, f.rng), 2u);
  tried[2] = true;
  EXPECT_FALSE(selector.select(tried, f.rng).has_value());
}

TEST(SelectorFactory, BuildsEveryAlgorithm) {
  Fixture f;
  for (const auto algorithm :
       {SelectionAlgorithm::kEvenDistribution, SelectionAlgorithm::kDistanceHistory,
        SelectionAlgorithm::kDistanceBandwidth, SelectionAlgorithm::kShortestPath}) {
    const auto selector = make_selector(algorithm, f.env());
    ASSERT_NE(selector, nullptr);
    EXPECT_EQ(selector->name(), to_string(algorithm));
    EXPECT_EQ(selector->weights().size(), 3u);
  }
}

TEST(SelectorFactory, WdbRequiresProbe) {
  Fixture f;
  SelectorEnvironment env = f.env();
  env.probe = nullptr;
  EXPECT_THROW(make_selector(SelectionAlgorithm::kDistanceBandwidth, env),
               std::invalid_argument);
  // Other algorithms tolerate a missing probe.
  EXPECT_NO_THROW(make_selector(SelectionAlgorithm::kEvenDistribution, env));
}

TEST(SelectorFactory, ValidatesEnvironment) {
  Fixture f;
  SelectorEnvironment env = f.env();
  env.group = nullptr;
  EXPECT_THROW(make_selector(SelectionAlgorithm::kEvenDistribution, env),
               std::invalid_argument);
}

TEST(AlgorithmNames, RoundTrip) {
  for (const auto algorithm :
       {SelectionAlgorithm::kEvenDistribution, SelectionAlgorithm::kDistanceHistory,
        SelectionAlgorithm::kDistanceBandwidth, SelectionAlgorithm::kShortestPath}) {
    EXPECT_EQ(parse_algorithm(to_string(algorithm)), algorithm);
  }
  EXPECT_THROW(parse_algorithm("NOPE"), std::invalid_argument);
}

// --- Property: every selector respects the tried-mask contract. ---

class SelectorMaskProperty : public ::testing::TestWithParam<SelectionAlgorithm> {};

TEST_P(SelectorMaskProperty, NeverSelectsTriedAndExhaustsExactlyOnce) {
  Fixture f;
  const auto selector = make_selector(GetParam(), f.env());
  std::array<bool, 3> tried = {false, false, false};
  std::array<bool, 3> seen = {false, false, false};
  for (int round = 0; round < 3; ++round) {
    const auto idx = selector->select(tried, f.rng);
    ASSERT_TRUE(idx.has_value());
    EXPECT_FALSE(tried[*idx]) << "selector returned an already-tried member";
    EXPECT_FALSE(seen[*idx]);
    tried[*idx] = true;
    seen[*idx] = true;
    selector->report(*idx, false);
  }
  EXPECT_FALSE(selector->select(tried, f.rng).has_value());
}

INSTANTIATE_TEST_SUITE_P(
    Algorithms, SelectorMaskProperty,
    ::testing::Values(SelectionAlgorithm::kEvenDistribution,
                      SelectionAlgorithm::kDistanceHistory,
                      SelectionAlgorithm::kDistanceBandwidth,
                      SelectionAlgorithm::kShortestPath));

}  // namespace
}  // namespace anyqos::core
