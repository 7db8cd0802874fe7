#include "src/core/centralized.h"

#include <gtest/gtest.h>

#include "src/des/random.h"
#include "src/net/topologies.h"

namespace anyqos::core {
namespace {

// Line 0-1-2-3-4 with members at {1, 4}.
struct Fixture {
  net::Topology topo = net::topologies::line(5);
  AnycastGroup group{"g", {1, 4}};
  net::RouteTable routes{topo, {1, 4}};
  net::BandwidthLedger ledger{topo, 0.2};
  signaling::MessageCounter counter;
  signaling::ReservationProtocol rsvp{ledger, counter};
  des::RandomStream rng{1};  // the agency draws nothing

  CentralizedController controller(net::NodeId at = 2, double rate = 1000.0) {
    return CentralizedController(topo, ledger, group, routes, rsvp, at, rate);
  }

  void saturate(net::NodeId a, net::NodeId b) {
    net::Path p;
    p.source = a;
    p.destination = b;
    p.links = {*topo.find_link(a, b)};
    ASSERT_TRUE(ledger.reserve(p, 20.0e6));
  }
};

TEST(Centralized, AdmitsOnNearestFeasibleRoute) {
  Fixture f;
  auto controller = f.controller();
  const AdmissionDecision decision = controller.admit(0.0, {0, 64'000.0}, f.rng);
  ASSERT_TRUE(decision.admitted);
  EXPECT_EQ(*decision.destination_index, 0u);  // 1 hop beats 4 hops
  EXPECT_EQ(decision.route->hops(), 1u);
  EXPECT_EQ(decision.attempts, 1u);
  EXPECT_DOUBLE_EQ(decision.reserved_bps, 64'000.0);
  EXPECT_EQ(controller.label(), "CTRL@2");
  controller.release(*decision.route, decision.reserved_bps);
  EXPECT_DOUBLE_EQ(f.ledger.total_reserved(), 0.0);
}

TEST(Centralized, GlobalViewAvoidsDeadRoutesInOneShot) {
  Fixture f;
  f.saturate(0, 1);  // near member's route (and the far route's first hop)
  auto controller = f.controller();
  const AdmissionDecision decision = controller.admit(0.0, {0, 64'000.0}, f.rng);
  // Both fixed routes start with link 0-1 on a line: nothing is feasible.
  EXPECT_FALSE(decision.admitted);
  // From source 2 the routes diverge: 2->1 is fine.
  const AdmissionDecision from2 = controller.admit(0.0, {2, 64'000.0}, f.rng);
  ASSERT_TRUE(from2.admitted);
  EXPECT_EQ(*from2.destination_index, 0u);
}

TEST(Centralized, PicksFartherMemberWhenNearBlocked) {
  Fixture f;
  // From source 2: route to member 1 uses link 2->1; block it.
  f.saturate(2, 1);
  auto controller = f.controller();
  const AdmissionDecision decision = controller.admit(0.0, {2, 64'000.0}, f.rng);
  ASSERT_TRUE(decision.admitted);
  EXPECT_EQ(*decision.destination_index, 1u);  // member at node 4
}

TEST(Centralized, ControlMessagesScaleWithDistanceToAgency) {
  Fixture f;
  auto controller = f.controller(/*at=*/4);
  EXPECT_EQ(controller.control_distance(4), 0u);
  EXPECT_EQ(controller.control_distance(0), 4u);
  const AdmissionDecision near = controller.admit(0.0, {4, 64'000.0}, f.rng);
  const AdmissionDecision far = controller.admit(0.0, {0, 64'000.0}, f.rng);
  ASSERT_TRUE(near.admitted && far.admitted);
  // far pays 2*4 control messages more than a co-located source.
  EXPECT_EQ(far.messages - (far.route->hops() * 2), 8u);
  EXPECT_EQ(near.messages - (near.route->hops() * 2), 0u);
}

TEST(Centralized, DecisionServerQueues) {
  Fixture f;
  auto controller = f.controller(2, /*rate=*/10.0);  // 0.1 s per decision
  const AdmissionDecision first = controller.admit(0.0, {0, 64'000.0}, f.rng);
  const AdmissionDecision second = controller.admit(0.0, {0, 64'000.0}, f.rng);
  const AdmissionDecision third = controller.admit(0.05, {0, 64'000.0}, f.rng);
  EXPECT_NEAR(first.decision_delay_s, 0.1, 1e-12);
  EXPECT_NEAR(second.decision_delay_s, 0.2, 1e-12);   // queued behind first
  EXPECT_NEAR(third.decision_delay_s, 0.25, 1e-12);   // arrives at 0.05, done 0.3
  // An idle period drains the queue.
  const AdmissionDecision later = controller.admit(10.0, {0, 64'000.0}, f.rng);
  EXPECT_NEAR(later.decision_delay_s, 0.1, 1e-12);
}

TEST(Centralized, Validation) {
  Fixture f;
  EXPECT_THROW(CentralizedController(f.topo, f.ledger, f.group, f.routes, f.rsvp, 99, 100.0),
               std::invalid_argument);
  EXPECT_THROW(CentralizedController(f.topo, f.ledger, f.group, f.routes, f.rsvp, 0, 0.0),
               std::invalid_argument);
  auto controller = f.controller();
  EXPECT_THROW(static_cast<void>(controller.admit(0.0, {0, 0.0}, f.rng)),
               std::invalid_argument);
  const AdmissionDecision admitted = controller.admit(0.0, {0, 64'000.0}, f.rng);
  ASSERT_TRUE(admitted.admitted);
  EXPECT_THROW(controller.release(*admitted.route, 0.0), std::invalid_argument);
}

TEST(Centralized, AtLeastAsGoodAsAnyFixedRoutePolicy) {
  // Property: whenever some fixed route is feasible, CTRL admits.
  Fixture f;
  auto controller = f.controller();
  des::RandomStream rng(5);
  for (int i = 0; i < 2000; ++i) {
    const net::NodeId source = static_cast<net::NodeId>(rng.uniform_index(5));
    const AdmissionDecision decision = controller.admit(0.0, {source, 64'000.0}, f.rng);
    bool any_feasible = false;
    for (std::size_t m = 0; m < f.group.size(); ++m) {
      if (f.ledger.can_reserve(f.routes.route(source, m), 64'000.0)) {
        any_feasible = true;
      }
    }
    if (decision.admitted) {
      // Occasionally release to keep churn going.
      if (rng.bernoulli(0.7)) {
        controller.release(*decision.route, decision.reserved_bps);
      }
    } else {
      EXPECT_FALSE(any_feasible) << "agency rejected despite a feasible route";
    }
  }
}

}  // namespace
}  // namespace anyqos::core
