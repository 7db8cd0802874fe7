#include "src/core/multipath_admission.h"

#include <gtest/gtest.h>

#include "src/net/topologies.h"

namespace anyqos::core {
namespace {

// Ring of 6 with a single member at node 3: two disjoint fixed paths from 0
// (0-1-2-3 and 0-5-4-3), so multipath can survive one side saturating.
struct Fixture {
  net::Topology topo = net::topologies::ring(6);
  AnycastGroup group{"g", {3}};
  net::BandwidthLedger ledger{topo, 0.2};
  signaling::MessageCounter counter;
  signaling::ReservationProtocol rsvp{ledger, counter};
  des::RandomStream rng{21};

  MultiPathAdmissionController controller(std::size_t r) {
    return MultiPathAdmissionController(topo, group, 2, rsvp, r);
  }

  void saturate(net::NodeId a, net::NodeId b) {
    net::Path p;
    p.source = a;
    p.destination = b;
    p.links = {*topo.find_link(a, b)};
    ASSERT_TRUE(ledger.reserve(p, 20.0e6));
  }
};

TEST(MultiPathAdmission, ExposesAllAlternatives) {
  Fixture f;
  auto controller = f.controller(2);
  EXPECT_EQ(controller.alternatives(0), 2u);  // both ring directions
  EXPECT_EQ(controller.label(), "<MP2,2>");
}

TEST(MultiPathAdmission, AdmitsAndReleases) {
  Fixture f;
  auto controller = f.controller(2);
  const AdmissionDecision decision = controller.admit(0.0, {0, 64'000.0}, f.rng);
  ASSERT_TRUE(decision.admitted);
  EXPECT_EQ(*decision.destination_index, 0u);
  EXPECT_DOUBLE_EQ(decision.reserved_bps, 64'000.0);
  f.topo.validate_path(*decision.route);
  controller.release(*decision.route, decision.reserved_bps);
  EXPECT_DOUBLE_EQ(f.ledger.total_reserved(), 0.0);
}

TEST(MultiPathAdmission, SurvivesPrimaryPathSaturation) {
  Fixture f;
  f.saturate(1, 2);  // kills 0-1-2-3
  auto controller = f.controller(2);
  for (int i = 0; i < 30; ++i) {
    const AdmissionDecision decision = controller.admit(0.0, {0, 64'000.0}, f.rng);
    ASSERT_TRUE(decision.admitted);
    EXPECT_EQ(decision.route->links.front(), *f.topo.find_link(0, 5));
    controller.release(*decision.route, decision.reserved_bps);
  }
}

TEST(MultiPathAdmission, SinglePathControllerCannotSurvive) {
  // The contrast that motivates the extension: with only the shortest fixed
  // path available (k=1 behaviour emulated by R=1 + primary saturated and
  // alternatives() == 1 on a line), admission fails where multipath succeeds.
  Fixture f;
  f.saturate(1, 2);
  auto r1 = f.controller(1);  // one try: picks a path randomly, may fail
  int rejected = 0;
  for (int i = 0; i < 300; ++i) {
    const AdmissionDecision decision = r1.admit(0.0, {0, 64'000.0}, f.rng);
    if (decision.admitted) {
      r1.release(*decision.route, decision.reserved_bps);
    } else {
      ++rejected;
    }
  }
  // Weights: path 0-1-2-3 (3 hops, w=1/3) vs 0-5-4-3 (3 hops, w=1/3): the
  // dead path is picked ~half the time and R=1 cannot recover.
  EXPECT_GT(rejected, 100);
  EXPECT_LT(rejected, 200);
}

TEST(MultiPathAdmission, AttemptsBoundedByRetrialAndAlternatives) {
  Fixture f;
  f.saturate(0, 1);
  f.saturate(0, 5);  // both exits dead: nothing feasible
  auto controller = f.controller(5);  // R exceeds the 2 alternatives
  const AdmissionDecision decision = controller.admit(0.0, {0, 64'000.0}, f.rng);
  EXPECT_FALSE(decision.admitted);
  EXPECT_EQ(decision.attempts, 2u);  // exhausted alternatives, not R
}

TEST(MultiPathAdmission, ShorterAlternativesWeighHeavier) {
  // Member at 2 on the ring: paths 0-1-2 (2 hops) and 0-5-4-3-2 (4 hops);
  // weights 1/2 vs 1/4 => the short path carries ~2/3 of first tries.
  net::Topology topo = net::topologies::ring(6);
  AnycastGroup group("g", {2});
  net::BandwidthLedger ledger(topo, 0.2);
  signaling::MessageCounter counter;
  signaling::ReservationProtocol rsvp(ledger, counter);
  MultiPathAdmissionController controller(topo, group, 2, rsvp, 1);
  des::RandomStream rng(5);
  int via_short = 0;
  const int trials = 3'000;
  for (int i = 0; i < trials; ++i) {
    const AdmissionDecision decision = controller.admit(0.0, {0, 64'000.0}, rng);
    ASSERT_TRUE(decision.admitted);
    if (decision.route->hops() == 2) {
      ++via_short;
    }
    controller.release(*decision.route, decision.reserved_bps);
  }
  EXPECT_NEAR(via_short / static_cast<double>(trials), 2.0 / 3.0, 0.04);
}

TEST(MultiPathAdmission, Validation) {
  Fixture f;
  auto controller = f.controller(2);
  EXPECT_THROW(static_cast<void>(controller.admit(0.0, {0, 0.0}, f.rng)),
               std::invalid_argument);
  const AdmissionDecision admitted = controller.admit(0.0, {0, 64'000.0}, f.rng);
  ASSERT_TRUE(admitted.admitted);
  EXPECT_THROW(controller.release(*admitted.route, 0.0), std::invalid_argument);
}

}  // namespace
}  // namespace anyqos::core
