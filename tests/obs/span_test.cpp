#include "src/obs/span.h"

#include <gtest/gtest.h>

#include <cmath>
#include <set>
#include <sstream>
#include <stdexcept>

#include "src/core/admission.h"
#include "src/net/topologies.h"

namespace anyqos::obs {
namespace {

// Line 0-1-2-3-4, members at {1, 4}: both routes from source 0 share the
// 0-1 link, so saturating it refuses every member (retrial exhaustion).
struct Fixture {
  net::Topology topo = net::topologies::line(5);
  core::AnycastGroup group{"g", {1, 4}};
  net::RouteTable routes{topo, {1, 4}};
  net::BandwidthLedger ledger{topo, 0.2};
  signaling::MessageCounter counter;
  signaling::ReservationProtocol rsvp{ledger, counter};
  signaling::ProbeService probe{ledger, counter};
  des::RandomStream rng{99};
  MemorySpanSink sink;
  DecisionTracer tracer;

  std::unique_ptr<core::AdmissionController> controller(std::size_t max_tries) {
    core::SelectorEnvironment env;
    env.source = 0;
    env.group = &group;
    env.routes = &routes;
    env.probe = &probe;
    env.flow_bandwidth = 64'000.0;
    auto c = std::make_unique<core::AdmissionController>(
        0, group, routes, rsvp,
        core::make_selector(core::SelectionAlgorithm::kEvenDistribution, env),
        std::make_unique<core::CounterRetrialPolicy>(max_tries));
    tracer.set_sink(&sink);
    c->set_tracer(&tracer);
    return c;
  }

  core::FlowRequest request(std::uint64_t id) {
    core::FlowRequest r;
    r.source = 0;
    r.bandwidth_bps = 64'000.0;
    r.request_id = id;
    return r;
  }

  void saturate_shared_link() {
    net::Path p;
    p.source = 0;
    p.destination = 1;
    p.links = {*topo.find_link(0, 1)};
    ASSERT_TRUE(ledger.reserve(p, ledger.available(p.links[0])));
  }
};

TEST(DecisionTracer, AdmittedRequestProducesRootAndChildSpans) {
  Fixture f;
  const auto controller = f.controller(2);
  const core::AdmissionDecision decision = controller->admit(f.request(7), f.rng);
  ASSERT_TRUE(decision.admitted);

  ASSERT_EQ(f.sink.decisions().size(), 1u);
  const DecisionSpan& root = f.sink.decisions().front();
  EXPECT_EQ(root.request_id, 7u);
  EXPECT_EQ(root.source, 0u);
  EXPECT_DOUBLE_EQ(root.bandwidth_bps, 64'000.0);
  EXPECT_EQ(root.algorithm, "ED");
  EXPECT_TRUE(root.admitted);
  EXPECT_EQ(root.destination_index, decision.destination_index);
  EXPECT_EQ(root.attempts, decision.attempts);
  EXPECT_EQ(root.messages, decision.messages);
  EXPECT_EQ(root.max_attempts, 2u);
  EXPECT_EQ(root.group_size, 2u);

  ASSERT_EQ(f.sink.attempts().size(), 1u);
  const AttemptSpan& child = f.sink.attempts().front();
  EXPECT_EQ(child.request_id, root.request_id);
  EXPECT_EQ(child.attempt_number, 1u);
  EXPECT_EQ(child.member_index, *decision.destination_index);
  EXPECT_EQ(child.member_node, f.group.member(*decision.destination_index));
  EXPECT_EQ(child.weights.size(), f.group.size());  // snapshot at selection time
  EXPECT_EQ(child.route_hops, decision.route->hops());
  EXPECT_TRUE(child.admitted);
  EXPECT_FALSE(child.blocking_link.has_value());
  EXPECT_GT(child.messages, 0u);
  EXPECT_EQ(child.retries_remaining, 1u);  // R=2, one attempt spent
  // The PATH walk saw the pre-reservation availability of the route.
  EXPECT_GT(child.bottleneck_bps, 0.0);
  EXPECT_TRUE(std::isfinite(child.bottleneck_bps));
}

TEST(DecisionTracer, RetrialExhaustionKeepsParentChildIntegrity) {
  Fixture f;
  const auto controller = f.controller(2);  // R = K = 2
  f.saturate_shared_link();
  const core::AdmissionDecision decision = controller->admit(f.request(11), f.rng);
  ASSERT_FALSE(decision.admitted);
  ASSERT_EQ(decision.attempts, 2u);

  ASSERT_EQ(f.sink.decisions().size(), 1u);
  const DecisionSpan& root = f.sink.decisions().front();
  EXPECT_FALSE(root.admitted);
  EXPECT_FALSE(root.destination_index.has_value());
  EXPECT_EQ(root.attempts, 2u);

  const auto children = f.sink.attempts_for(11);
  ASSERT_EQ(children.size(), 2u);
  std::set<std::size_t> members;
  std::set<std::uint64_t> span_ids;
  for (std::size_t i = 0; i < children.size(); ++i) {
    EXPECT_EQ(children[i].request_id, root.request_id);
    EXPECT_EQ(children[i].attempt_number, i + 1);
    EXPECT_FALSE(children[i].admitted);
    ASSERT_TRUE(children[i].blocking_link.has_value());
    // Every route starts at the saturated 0-1 link, so the PATH walk saw
    // zero available bandwidth there.
    EXPECT_DOUBLE_EQ(children[i].bottleneck_bps, 0.0);
    // Retry budget counts down to exhaustion: R - attempt_number.
    EXPECT_EQ(children[i].retries_remaining, 2u - (i + 1));
    members.insert(children[i].member_index);
    span_ids.insert(children[i].span_id);
  }
  // Retrial control never re-tries a member within one request.
  EXPECT_EQ(members.size(), 2u);
  EXPECT_EQ(span_ids.size(), 2u);
}

TEST(DecisionTracer, InactiveTracerEmitsNothing) {
  Fixture f;
  const auto controller = f.controller(2);
  f.tracer.set_sink(nullptr);  // controller keeps the tracer, but it is idle
  const core::AdmissionDecision decision = controller->admit(f.request(1), f.rng);
  EXPECT_TRUE(decision.admitted);
  EXPECT_EQ(f.tracer.spans_emitted(), 0u);
  EXPECT_TRUE(f.sink.decisions().empty());
  EXPECT_TRUE(f.sink.attempts().empty());
  // Direct tracer calls without a sink are a contract violation.
  EXPECT_THROW(f.tracer.begin_request(1, 0, 1.0, "ED", 2, 2), std::invalid_argument);
}

TEST(DecisionTracer, StateMachineRejectsMisuse) {
  MemorySpanSink sink;
  DecisionTracer tracer;
  tracer.set_sink(&sink);
  EXPECT_THROW(tracer.end_request(false, std::nullopt, 0), std::invalid_argument);
  EXPECT_THROW(tracer.record_attempt(0, 0, {}, 1, 0.0, false, std::nullopt, 0, 0, 0),
               std::invalid_argument);
  tracer.begin_request(1, 0, 1.0, "ED", 2, 2);
  EXPECT_THROW(tracer.begin_request(2, 0, 1.0, "ED", 2, 2), std::invalid_argument);
  tracer.end_request(false, std::nullopt, 0);
  EXPECT_EQ(sink.decisions().size(), 1u);
}

TEST(DecisionTracer, ClockStampsSpans) {
  MemorySpanSink sink;
  DecisionTracer tracer;
  tracer.set_sink(&sink);
  double now = 12.5;
  tracer.set_clock([&now] { return now; });
  tracer.begin_request(1, 0, 1.0, "ED", 2, 2);
  now = 13.0;
  tracer.record_attempt(0, 0, {0.5, 0.5}, 1, 1e6, true, std::nullopt, 2, 0, 1);
  tracer.end_request(true, 0, 2);
  EXPECT_DOUBLE_EQ(sink.decisions().front().start_time, 12.5);
  EXPECT_DOUBLE_EQ(sink.attempts().front().time, 13.0);
}

TEST(JsonlSpanSink, OneTaggedLinePerSpan) {
  std::ostringstream out;
  JsonlSpanSink sink(out);
  DecisionTracer tracer;
  tracer.set_sink(&sink);
  tracer.begin_request(5, 3, 64'000.0, "WD/D+H", 2, 3);
  tracer.record_attempt(1, 4, {0.25, 0.5, 0.25}, 2, 1.5e6, false, net::LinkId{7}, 4, 1, 1);
  tracer.record_attempt(0, 1, {0.25, 0.5, 0.25}, 1, 2e6, true, std::nullopt, 3, 0, 0);
  tracer.end_request(true, 0, 7);
  EXPECT_EQ(tracer.spans_emitted(), 3u);

  std::istringstream in(out.str());
  std::vector<std::string> lines;
  for (std::string line; std::getline(in, line);) {
    lines.push_back(line);
  }
  ASSERT_EQ(lines.size(), 3u);
  // Children precede their parent; every line is a tagged JSON object.
  EXPECT_NE(lines[0].find("\"span\":\"attempt\""), std::string::npos);
  EXPECT_NE(lines[0].find("\"request\":5"), std::string::npos);
  EXPECT_NE(lines[0].find("\"blocking_link\":7"), std::string::npos);
  EXPECT_NE(lines[0].find("\"retransmits\":1"), std::string::npos);
  EXPECT_NE(lines[1].find("\"span\":\"attempt\""), std::string::npos);
  EXPECT_NE(lines[1].find("\"retransmits\":0"), std::string::npos);
  EXPECT_NE(lines[1].find("\"blocking_link\":null"), std::string::npos);
  EXPECT_NE(lines[2].find("\"span\":\"decision\""), std::string::npos);
  EXPECT_NE(lines[2].find("\"algorithm\":\"WD/D+H\""), std::string::npos);
  EXPECT_NE(lines[2].find("\"attempts\":2"), std::string::npos);
  for (const std::string& line : lines) {
    EXPECT_EQ(line.front(), '{');
    EXPECT_EQ(line.back(), '}');
  }
}

}  // namespace
}  // namespace anyqos::obs
