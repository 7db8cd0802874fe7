#include "src/obs/flight_recorder.h"

#include <gtest/gtest.h>

#include <sstream>
#include <stdexcept>
#include <string>
#include <vector>

#include "src/obs/span.h"

namespace anyqos::obs {
namespace {

DecisionSpan decision_span(std::uint64_t request_id) {
  DecisionSpan span;
  span.request_id = request_id;
  span.algorithm = "ED";
  return span;
}

AttemptSpan attempt_span(std::uint64_t request_id) {
  AttemptSpan span;
  span.request_id = request_id;
  return span;
}

TEST(FlightRecorder, RejectsZeroDepth) {
  EXPECT_THROW(FlightRecorder(FlightRecorderOptions{0, 1}), std::invalid_argument);
}

TEST(FlightRecorder, RingKeepsTheMostRecentDepthEntries) {
  FlightRecorder recorder(FlightRecorderOptions{3, 16});
  for (std::uint64_t id = 1; id <= 5; ++id) {
    recorder.span_sink().on_decision(decision_span(id));
  }
  EXPECT_EQ(recorder.entries(), 3u);

  std::ostringstream out;
  recorder.set_output(&out);
  EXPECT_EQ(recorder.trigger(10.0, "probe"), 3u);
  // Oldest-first: requests 1 and 2 were overwritten by the wrap.
  const std::string text = out.str();
  EXPECT_EQ(text.find("\"request\":1,"), std::string::npos);
  EXPECT_EQ(text.find("\"request\":2,"), std::string::npos);
  const std::size_t third = text.find("\"request\":3");
  const std::size_t fourth = text.find("\"request\":4");
  const std::size_t fifth = text.find("\"request\":5");
  ASSERT_NE(third, std::string::npos);
  ASSERT_NE(fourth, std::string::npos);
  ASSERT_NE(fifth, std::string::npos);
  EXPECT_LT(third, fourth);
  EXPECT_LT(fourth, fifth);
}

TEST(FlightRecorder, ForwardsSpansToTheDownstreamSink) {
  FlightRecorder recorder;
  MemorySpanSink downstream;
  recorder.set_forward(&downstream);
  recorder.span_sink().on_attempt(attempt_span(7));
  recorder.span_sink().on_decision(decision_span(7));
  EXPECT_EQ(recorder.entries(), 2u);
  ASSERT_EQ(downstream.attempts().size(), 1u);
  ASSERT_EQ(downstream.decisions().size(), 1u);
  EXPECT_EQ(downstream.decisions()[0].request_id, 7u);

  recorder.set_forward(nullptr);
  recorder.span_sink().on_decision(decision_span(8));
  EXPECT_EQ(recorder.entries(), 3u);
  EXPECT_EQ(downstream.decisions().size(), 1u);  // detached: ring only
}

TEST(FlightRecorder, SnapshotCarriesHeaderSpansAndEvents) {
  FlightRecorder recorder;
  recorder.span_sink().on_attempt(attempt_span(42));
  recorder.span_sink().on_decision(decision_span(42));
  recorder.note(12.5, "link_down", "r0->r1");

  std::ostringstream out;
  recorder.set_output(&out);
  EXPECT_EQ(recorder.trigger(13.0, "link_fault 0->1"), 3u);
  EXPECT_EQ(recorder.triggers(), 1u);
  EXPECT_EQ(recorder.dumps_written(), 1u);

  std::istringstream lines(out.str());
  std::string line;
  ASSERT_TRUE(std::getline(lines, line));
  EXPECT_EQ(line,
            "{\"flight\":\"snapshot\",\"reason\":\"link_fault 0->1\",\"t\":13,"
            "\"seq\":1,\"entries\":3}");
  ASSERT_TRUE(std::getline(lines, line));
  EXPECT_NE(line.find("\"span\":\"attempt\""), std::string::npos);
  EXPECT_NE(line.find("\"request\":42"), std::string::npos);
  ASSERT_TRUE(std::getline(lines, line));
  EXPECT_NE(line.find("\"span\":\"decision\""), std::string::npos);
  ASSERT_TRUE(std::getline(lines, line));
  EXPECT_EQ(line,
            "{\"flight\":\"event\",\"t\":12.5,\"kind\":\"link_down\","
            "\"detail\":\"r0->r1\"}");
  EXPECT_FALSE(std::getline(lines, line));

  // The ring is not cleared by a trigger: a second one sees the same window.
  out.str("");
  EXPECT_EQ(recorder.trigger(14.0, "again"), 3u);
  EXPECT_NE(out.str().find("\"seq\":2"), std::string::npos);
}

std::vector<std::string> lines_of(const std::string& text) {
  std::vector<std::string> lines;
  std::istringstream in(text);
  for (std::string line; std::getline(in, line);) {
    lines.push_back(line);
  }
  return lines;
}

// Flow events enter the ring raw and trigger() renders them: the detail text
// is pinned here whole, "%.0f" rounding and the "-" of a missing destination
// included. Each slot held another kind of entry before, and a slot that
// held a flow event later dumps the span written over it.
TEST(FlightRecorder, FlowEventsRenderTheirDetailAtDump) {
  FlightRecorder recorder(FlightRecorderOptions{4, 16});
  AttemptSpan attempt = attempt_span(1);
  attempt.weights = {0.25, 0.75};
  recorder.span_sink().on_attempt(attempt);
  recorder.span_sink().on_decision(decision_span(1));
  recorder.note(0.5, "orphan_expiry", "session 3");
  recorder.note(FlowNote{.time = 1.0, .kind = "ADMITTED", .flow = 7, .source = 3,
                         .destination = 12, .attempts = 2, .bandwidth_bps = 64'000.0,
                         .active_flows = 41});
  // The ring is full: these overwrite the attempt, decision and note slots.
  recorder.note(FlowNote{.time = 2.25, .kind = "REJECTED", .flow = 8, .source = 5,
                         .destination = net::kInvalidNode, .attempts = 2,
                         .bandwidth_bps = 64'000.0, .active_flows = 41});
  recorder.note(FlowNote{.time = 3.5, .kind = "ADMITTED", .flow = 9, .source = 1,
                         .destination = 4, .attempts = 1, .bandwidth_bps = 1'234.5,
                         .active_flows = 42});
  recorder.note(FlowNote{.time = 4.0, .kind = "DEPARTED", .flow = 7, .source = 3,
                         .destination = 12, .attempts = 2, .bandwidth_bps = 99.75,
                         .active_flows = 41});

  std::ostringstream out;
  recorder.set_output(&out);
  EXPECT_EQ(recorder.trigger(4.5, "probe"), 4u);
  const std::vector<std::string> expected = {
      R"({"flight":"snapshot","reason":"probe","t":4.5,"seq":1,"entries":4})",
      R"({"flight":"event","t":1,"kind":"ADMITTED","detail":"flow=7 src=3 dst=12 attempts=2 bw_bps=64000 active=41"})",
      R"({"flight":"event","t":2.25,"kind":"REJECTED","detail":"flow=8 src=5 dst=- attempts=2 bw_bps=64000 active=41"})",
      // 1234.5 is a tie: "%.0f" rounds it to even.
      R"({"flight":"event","t":3.5,"kind":"ADMITTED","detail":"flow=9 src=1 dst=4 attempts=1 bw_bps=1234 active=42"})",
      R"({"flight":"event","t":4,"kind":"DEPARTED","detail":"flow=7 src=3 dst=12 attempts=2 bw_bps=100 active=41"})",
  };
  EXPECT_EQ(lines_of(out.str()), expected);

  // The oldest slot held the first flow event; a span written over it
  // dumps as the span, weights and all.
  recorder.span_sink().on_attempt(attempt);
  out.str("");
  EXPECT_EQ(recorder.trigger(5.0, "again"), 4u);
  const std::vector<std::string> lines = lines_of(out.str());
  ASSERT_EQ(lines.size(), 5u);
  EXPECT_EQ(lines[1], expected[2]);
  EXPECT_EQ(lines[3], expected[4]);
  EXPECT_EQ(lines[4],
            R"({"span":"attempt","request":1,"id":0,"attempt":0,"time":0,"member":0,)"
            R"("node":4294967295,"weights":[0.25,0.75],"hops":0,"bottleneck_bps":0,)"
            R"("admitted":false,"blocking_link":null,"messages":0,"retransmits":0,)"
            R"("retries_remaining":0})");
}

TEST(FlightRecorder, SuppressesDumpsWithoutOutputOrPastTheCap) {
  FlightRecorder recorder(FlightRecorderOptions{8, 2});
  recorder.note(1.0, "noted", "x");
  // No output attached: the trigger counts but writes nothing.
  EXPECT_EQ(recorder.trigger(1.0, "early"), 0u);
  EXPECT_EQ(recorder.triggers(), 1u);
  EXPECT_EQ(recorder.dumps_written(), 0u);

  std::ostringstream out;
  recorder.set_output(&out);
  EXPECT_EQ(recorder.trigger(2.0, "first"), 1u);
  EXPECT_EQ(recorder.trigger(3.0, "second"), 1u);
  // max_dumps = 2 exhausted: later triggers only count.
  EXPECT_EQ(recorder.trigger(4.0, "third"), 0u);
  EXPECT_EQ(recorder.triggers(), 4u);
  EXPECT_EQ(recorder.dumps_written(), 2u);
  EXPECT_EQ(out.str().find("third"), std::string::npos);
}

TEST(FlightRecorder, ClearDropsEntriesButKeepsCounters) {
  FlightRecorder recorder(FlightRecorderOptions{2, 16});
  recorder.note(1.0, "a", "");
  recorder.note(2.0, "b", "");
  recorder.note(3.0, "c", "");  // wraps
  std::ostringstream out;
  recorder.set_output(&out);
  EXPECT_EQ(recorder.trigger(3.0, "full"), 2u);

  recorder.clear();
  EXPECT_EQ(recorder.entries(), 0u);
  out.str("");
  EXPECT_EQ(recorder.trigger(4.0, "empty"), 0u);  // header-only snapshot
  EXPECT_NE(out.str().find("\"entries\":0"), std::string::npos);
  EXPECT_EQ(recorder.triggers(), 2u);
  EXPECT_EQ(recorder.dumps_written(), 2u);
  // Post-clear pushes start a fresh ring (no stale rotation).
  recorder.note(5.0, "d", "");
  out.str("");
  EXPECT_EQ(recorder.trigger(5.0, "fresh"), 1u);
  EXPECT_EQ(recorder.triggers(), 3u);
  EXPECT_EQ(recorder.dumps_written(), 3u);
  EXPECT_NE(out.str().find("\"kind\":\"d\""), std::string::npos);
}

}  // namespace
}  // namespace anyqos::obs
