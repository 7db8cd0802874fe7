#include "src/core/admission.h"

#include <gtest/gtest.h>

#include "src/net/topologies.h"

namespace anyqos::core {
namespace {

// Line 0-1-2-3-4, members at {1, 4}: route to member 0 is 1 hop, member 1 is
// 4 hops, and both share the 0-1 link from source 0.
struct Fixture {
  net::Topology topo = net::topologies::line(5);
  AnycastGroup group{"g", {1, 4}};
  net::RouteTable routes{topo, {1, 4}};
  net::BandwidthLedger ledger{topo, 0.2};
  signaling::MessageCounter counter;
  signaling::ReservationProtocol rsvp{ledger, counter};
  signaling::ProbeService probe{ledger, counter};
  des::RandomStream rng{99};

  std::unique_ptr<AdmissionController> controller(SelectionAlgorithm algorithm,
                                                  std::size_t max_tries) {
    SelectorEnvironment env;
    env.source = 0;
    env.group = &group;
    env.routes = &routes;
    env.probe = &probe;
    env.flow_bandwidth = 64'000.0;
    return std::make_unique<AdmissionController>(
        0, group, routes, rsvp, make_selector(algorithm, env),
        std::make_unique<CounterRetrialPolicy>(max_tries));
  }

  FlowRequest request(net::Bandwidth bw = 64'000.0) {
    FlowRequest r;
    r.source = 0;
    r.bandwidth_bps = bw;
    return r;
  }

  void saturate(net::NodeId a, net::NodeId b) {
    net::Path p;
    p.source = a;
    p.destination = b;
    p.links = {*topo.find_link(a, b)};
    ASSERT_TRUE(ledger.reserve(p, 20.0e6));
  }
};

TEST(AdmissionController, AdmitsWhenCapacityExists) {
  Fixture f;
  const auto controller = f.controller(SelectionAlgorithm::kEvenDistribution, 2);
  const AdmissionDecision decision = controller->admit(f.request(), f.rng);
  EXPECT_TRUE(decision.admitted);
  ASSERT_TRUE(decision.destination_index.has_value());
  EXPECT_EQ(decision.attempts, 1u);
  EXPECT_GT(decision.messages, 0u);
  f.topo.validate_path(*decision.route);
  EXPECT_GT(f.ledger.total_reserved(), 0.0);
}

TEST(AdmissionController, ReservedBandwidthMatchesRoute) {
  Fixture f;
  const auto controller = f.controller(SelectionAlgorithm::kShortestPath, 1);
  const AdmissionDecision decision = controller->admit(f.request(), f.rng);
  ASSERT_TRUE(decision.admitted);
  EXPECT_EQ(*decision.destination_index, 0u);  // nearest member
  EXPECT_EQ(decision.route->hops(), 1u);
  EXPECT_DOUBLE_EQ(f.ledger.reserved(decision.route->links[0]), 64'000.0);
}

TEST(AdmissionController, ReleaseReturnsBandwidth) {
  Fixture f;
  const auto controller = f.controller(SelectionAlgorithm::kEvenDistribution, 2);
  const AdmissionDecision decision = controller->admit(f.request(), f.rng);
  ASSERT_TRUE(decision.admitted);
  controller->release(decision, 64'000.0);
  EXPECT_DOUBLE_EQ(f.ledger.total_reserved(), 0.0);
  EXPECT_GT(f.counter.by_kind(signaling::MessageKind::kTear), 0u);
}

TEST(AdmissionController, ReleaseOfRejectedDecisionThrows) {
  Fixture f;
  const auto controller = f.controller(SelectionAlgorithm::kEvenDistribution, 2);
  AdmissionDecision rejected;
  EXPECT_THROW(controller->release(rejected, 64'000.0), std::invalid_argument);
}

TEST(AdmissionController, RejectsWhenSharedLinkSaturated) {
  Fixture f;
  f.saturate(0, 1);  // both routes start with this link
  const auto controller = f.controller(SelectionAlgorithm::kEvenDistribution, 2);
  const AdmissionDecision decision = controller->admit(f.request(), f.rng);
  EXPECT_FALSE(decision.admitted);
  EXPECT_EQ(decision.attempts, 2u);  // R = 2 tries, both blocked
  EXPECT_FALSE(decision.destination_index.has_value());
}

TEST(AdmissionController, RetryFindsAlternativeDestination) {
  Fixture f;
  f.saturate(3, 4);  // member 4's route dies at its last hop; member 1 fine
  const auto controller = f.controller(SelectionAlgorithm::kEvenDistribution, 2);
  // With R=2, every request must eventually land on member index 0.
  for (int i = 0; i < 20; ++i) {
    const AdmissionDecision decision = controller->admit(f.request(), f.rng);
    ASSERT_TRUE(decision.admitted);
    EXPECT_EQ(*decision.destination_index, 0u);
    controller->release(decision, 64'000.0);
  }
}

TEST(AdmissionController, R1NeverRetries) {
  Fixture f;
  f.saturate(3, 4);
  const auto controller = f.controller(SelectionAlgorithm::kEvenDistribution, 1);
  int rejected = 0;
  for (int i = 0; i < 200; ++i) {
    const AdmissionDecision decision = controller->admit(f.request(), f.rng);
    EXPECT_EQ(decision.attempts, 1u);
    if (!decision.admitted) {
      ++rejected;
    } else {
      controller->release(decision, 64'000.0);
    }
  }
  // ED picks the dead member ~half the time.
  EXPECT_GT(rejected, 50);
  EXPECT_LT(rejected, 150);
}

TEST(AdmissionController, AttemptsNeverExceedGroupSize) {
  Fixture f;
  f.saturate(0, 1);
  // R = 5 > K = 2: the loop must stop after exhausting the group.
  const auto controller = f.controller(SelectionAlgorithm::kEvenDistribution, 5);
  const AdmissionDecision decision = controller->admit(f.request(), f.rng);
  EXPECT_FALSE(decision.admitted);
  EXPECT_EQ(decision.attempts, 2u);
}

TEST(AdmissionController, WrongSourceRejected) {
  Fixture f;
  const auto controller = f.controller(SelectionAlgorithm::kEvenDistribution, 2);
  FlowRequest request;
  request.source = 3;
  request.bandwidth_bps = 64'000.0;
  EXPECT_THROW(static_cast<void>(controller->admit(request, f.rng)), std::invalid_argument);
}

TEST(AdmissionController, NonPositiveBandwidthRejected) {
  Fixture f;
  const auto controller = f.controller(SelectionAlgorithm::kEvenDistribution, 2);
  EXPECT_THROW(static_cast<void>(controller->admit(f.request(0.0), f.rng)),
               std::invalid_argument);
}

TEST(AdmissionController, MessagesAccumulateAcrossRetries) {
  Fixture f;
  f.saturate(0, 1);
  const auto controller = f.controller(SelectionAlgorithm::kEvenDistribution, 2);
  const AdmissionDecision decision = controller->admit(f.request(), f.rng);
  // Each attempt: PATH dies on link 1 (1 msg) + PATH_ERR (1 msg) = 2.
  EXPECT_EQ(decision.messages, 4u);
}

TEST(GlobalOracle, AdmitsViaAnyFeasiblePath) {
  Fixture f;
  GlobalAdmissionOracle oracle(f.topo, f.ledger, f.group);
  const AdmissionDecision decision = oracle.admit(0.0, f.request(), f.rng);
  ASSERT_TRUE(decision.admitted);
  EXPECT_EQ(decision.route->destination, 1u);  // nearest member
  EXPECT_EQ(decision.attempts, 1u);
  EXPECT_EQ(decision.messages, 0u);  // oracle bypasses signaling
  EXPECT_DOUBLE_EQ(decision.reserved_bps, 64'000.0);
  EXPECT_EQ(oracle.label(), "GDI");
  oracle.release(*decision.route, decision.reserved_bps);
  EXPECT_DOUBLE_EQ(f.ledger.total_reserved(), 0.0);
}

TEST(GlobalOracle, AdmissionsOnOnePathShareOneRoute) {
  // The oracle keeps each distinct path it admits on; a second admission on
  // the same path points at the same object instead of a fresh copy.
  Fixture f;
  GlobalAdmissionOracle oracle(f.topo, f.ledger, f.group);
  const AdmissionDecision first = oracle.admit(0.0, f.request(), f.rng);
  const AdmissionDecision second = oracle.admit(0.0, f.request(), f.rng);
  ASSERT_TRUE(first.admitted);
  ASSERT_TRUE(second.admitted);
  EXPECT_EQ(first.route, second.route);
  // A request from elsewhere takes another path, and another object.
  FlowRequest other = f.request();
  other.source = 3;
  const AdmissionDecision third = oracle.admit(0.0, other, f.rng);
  ASSERT_TRUE(third.admitted);
  EXPECT_NE(third.route, first.route);
  EXPECT_EQ(third.route->destination, 4u);
}

TEST(GlobalOracle, FindsDetourWhenFixedRoutesBlocked) {
  // Ring topology: fixed shortest route blocked, but the long way exists.
  net::Topology ring = net::topologies::ring(6);
  AnycastGroup group("g", {3});
  net::BandwidthLedger ledger(ring, 0.2);
  GlobalAdmissionOracle oracle(ring, ledger, group);
  // Saturate link 1-2 (on the short path 0-1-2-3).
  net::Path block;
  block.source = 1;
  block.destination = 2;
  block.links = {*ring.find_link(1, 2)};
  ASSERT_TRUE(ledger.reserve(block, 20.0e6));
  FlowRequest request;
  request.source = 0;
  request.bandwidth_bps = 64'000.0;
  des::RandomStream rng(1);
  const AdmissionDecision decision = oracle.admit(0.0, request, rng);
  ASSERT_TRUE(decision.admitted);
  EXPECT_EQ(decision.route->hops(), 3u);  // 0-5-4-3 the long way
}

TEST(GlobalOracle, RejectsOnlyWhenNoPathAnywhere) {
  Fixture f;
  GlobalAdmissionOracle oracle(f.topo, f.ledger, f.group);
  f.saturate(0, 1);  // the line's only exit from node 0
  const AdmissionDecision decision = oracle.admit(0.0, f.request(), f.rng);
  EXPECT_FALSE(decision.admitted);
}

TEST(GlobalOracle, SourceColocatedWithMemberAlwaysAdmits) {
  Fixture f;
  GlobalAdmissionOracle oracle(f.topo, f.ledger, f.group);
  FlowRequest request;
  request.source = 1;  // member router itself
  request.bandwidth_bps = 64'000.0;
  const AdmissionDecision decision = oracle.admit(0.0, request, f.rng);
  ASSERT_TRUE(decision.admitted);
  EXPECT_TRUE(decision.route->empty());
}

}  // namespace
}  // namespace anyqos::core
