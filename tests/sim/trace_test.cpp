#include "src/sim/trace.h"

#include <gtest/gtest.h>

#include <sstream>
#include <string>
#include <vector>

#include "src/net/topologies.h"
#include "src/sim/faults.h"
#include "src/sim/simulation.h"

namespace anyqos::sim {
namespace {

TEST(TraceEventKindNames, AllDistinct) {
  EXPECT_EQ(to_string(TraceEventKind::kAdmitted), "ADMITTED");
  EXPECT_EQ(to_string(TraceEventKind::kRejected), "REJECTED");
  EXPECT_EQ(to_string(TraceEventKind::kDeparted), "DEPARTED");
  EXPECT_EQ(to_string(TraceEventKind::kDropped), "DROPPED");
  EXPECT_EQ(to_string(TraceEventKind::kLinkDown), "LINK_DOWN");
  EXPECT_EQ(to_string(TraceEventKind::kLinkUp), "LINK_UP");
}

TEST(MemoryTraceSink, RecordsAndCounts) {
  MemoryTraceSink sink;
  TraceEvent event;
  event.kind = TraceEventKind::kAdmitted;
  sink.record(event);
  event.kind = TraceEventKind::kDeparted;
  sink.record(event);
  sink.record(event);
  EXPECT_EQ(sink.events().size(), 3u);
  EXPECT_EQ(sink.count(TraceEventKind::kAdmitted), 1u);
  EXPECT_EQ(sink.count(TraceEventKind::kDeparted), 2u);
  EXPECT_EQ(sink.count(TraceEventKind::kDropped), 0u);
  sink.clear();
  EXPECT_TRUE(sink.events().empty());
}

TEST(CsvTraceSink, WritesHeaderAndRows) {
  std::ostringstream out;
  CsvTraceSink sink(out);
  TraceEvent event;
  event.time = 1.5;
  event.kind = TraceEventKind::kAdmitted;
  event.flow = 17;
  event.source = 3;
  event.destination = 8;
  event.attempts = 2;
  event.bandwidth_bps = 64000;
  event.active_flows = 41;
  sink.record(event);
  TraceEvent fault;
  fault.time = 2.0;
  fault.kind = TraceEventKind::kLinkDown;
  fault.source = 0;
  fault.destination = 1;
  sink.record(fault);
  const std::string text = out.str();
  EXPECT_NE(text.find("time,kind,flow,source,destination,attempts,bandwidth_bps,active\n"),
            std::string::npos);
  EXPECT_NE(text.find("1.5,ADMITTED,17,3,8,2,64000,41"), std::string::npos);
  // Link events carry no request id or bandwidth.
  EXPECT_NE(text.find("2,LINK_DOWN,-,0,1,0,0,0"), std::string::npos);
}

TEST(CsvTraceSink, TimesAndBandwidthsRoundTripExactly) {
  // Six significant digits would print 12345.7 and lose the rest; every
  // written value must parse back to the double that was recorded.
  std::ostringstream out;
  CsvTraceSink sink(out);
  TraceEvent event;
  event.time = 12345.678901234;
  event.kind = TraceEventKind::kAdmitted;
  event.flow = 1;
  event.source = 0;
  event.destination = 4;
  event.attempts = 1;
  event.bandwidth_bps = 64000.25;
  sink.record(event);
  std::istringstream in(out.str());
  std::string header;
  std::string row;
  ASSERT_TRUE(std::getline(in, header));
  ASSERT_TRUE(std::getline(in, row));
  std::vector<std::string> fields;
  std::istringstream cells(row);
  for (std::string cell; std::getline(cells, cell, ',');) {
    fields.push_back(cell);
  }
  ASSERT_EQ(fields.size(), 8u) << row;
  EXPECT_EQ(std::stod(fields[0]), 12345.678901234) << fields[0];
  EXPECT_EQ(std::stod(fields[6]), 64000.25) << fields[6];
}

TEST(SimulationTracing, FlowEventsCarryRequestIdAndBandwidth) {
  const net::Topology topo = net::topologies::ring(6);
  SimulationConfig config;
  config.traffic.arrival_rate = 5.0;
  config.traffic.mean_holding_s = 30.0;
  config.traffic.flow_bandwidth_bps = 64'000.0;
  config.traffic.sources = {1, 2};
  config.group_members = {0, 3};
  config.warmup_s = 0.0;
  config.measure_s = 100.0;
  config.seed = 7;
  MemoryTraceSink sink;
  config.trace = &sink;
  Simulation sim(topo, config);
  (void)sim.run();

  std::uint64_t last_arrival_id = 0;
  for (const TraceEvent& event : sink.events()) {
    switch (event.kind) {
      case TraceEventKind::kAdmitted:
      case TraceEventKind::kRejected:
        // Arrival sequence numbers start at 1 and strictly increase.
        EXPECT_EQ(event.flow, last_arrival_id + 1);
        last_arrival_id = event.flow;
        EXPECT_DOUBLE_EQ(event.bandwidth_bps, 64'000.0);
        break;
      case TraceEventKind::kDeparted:
      case TraceEventKind::kDropped:
        // Departures reference a previously seen arrival.
        EXPECT_GE(event.flow, 1u);
        EXPECT_LE(event.flow, last_arrival_id);
        EXPECT_DOUBLE_EQ(event.bandwidth_bps, 64'000.0);
        break;
      case TraceEventKind::kLinkDown:
      case TraceEventKind::kLinkUp:
      case TraceEventKind::kMemberDown:
      case TraceEventKind::kMemberUp:
        EXPECT_EQ(event.flow, 0u);
        break;
      case TraceEventKind::kFailover:
        EXPECT_GE(event.flow, 1u);
        EXPECT_DOUBLE_EQ(event.bandwidth_bps, 64'000.0);
        break;
      case TraceEventKind::kShed:
        // Shed requests consume an arrival sequence number but walk nothing.
        EXPECT_EQ(event.flow, last_arrival_id + 1);
        last_arrival_id = event.flow;
        EXPECT_EQ(event.attempts, 0u);
        break;
      case TraceEventKind::kNodeDown:
      case TraceEventKind::kNodeUp:
      case TraceEventKind::kReconverged:
        EXPECT_EQ(event.flow, 0u);
        break;
      case TraceEventKind::kRepaired:
      case TraceEventKind::kRepairFailed:
        // Repair outcomes reference a previously admitted flow's request.
        EXPECT_GE(event.flow, 1u);
        EXPECT_DOUBLE_EQ(event.bandwidth_bps, 64'000.0);
        break;
    }
  }
  EXPECT_GT(last_arrival_id, 0u);
}

TEST(SimulationTracing, EventStreamIsConsistent) {
  const net::Topology topo = net::topologies::ring(6);
  SimulationConfig config;
  config.traffic.arrival_rate = 5.0;
  config.traffic.mean_holding_s = 30.0;
  config.traffic.flow_bandwidth_bps = 64'000.0;
  config.traffic.sources = {1, 2};
  config.group_members = {0, 3};
  config.warmup_s = 50.0;
  config.measure_s = 200.0;
  config.seed = 3;
  MemoryTraceSink sink;
  config.trace = &sink;
  Simulation sim(topo, config);
  const SimulationResult result = sim.run();

  const std::size_t admitted = sink.count(TraceEventKind::kAdmitted);
  const std::size_t departed = sink.count(TraceEventKind::kDeparted);
  const std::size_t dropped = sink.count(TraceEventKind::kDropped);
  // Every departure/drop corresponds to an earlier admission; flows still
  // active at the end account for the difference.
  EXPECT_GE(admitted, departed + dropped);
  EXPECT_GT(admitted, 0u);
  // Trace covers warm-up too, so it sees at least the measured admissions.
  EXPECT_GE(admitted, result.admitted);

  // Timestamps are non-decreasing and the active-flow counter never jumps by
  // more than one per flow event.
  double last_time = 0.0;
  for (const TraceEvent& event : sink.events()) {
    EXPECT_GE(event.time, last_time);
    last_time = event.time;
  }
}

TEST(SimulationTracing, FaultEventsAppearInOrder) {
  const net::Topology topo = net::topologies::ring(6);
  SimulationConfig config;
  config.traffic.arrival_rate = 2.0;
  config.traffic.mean_holding_s = 20.0;
  config.traffic.flow_bandwidth_bps = 64'000.0;
  config.traffic.sources = {2};
  config.group_members = {0};
  config.warmup_s = 10.0;
  config.measure_s = 200.0;
  config.seed = 4;
  config.faults.push_back(single_fault(0, 1, 50.0, 100.0));
  MemoryTraceSink sink;
  config.trace = &sink;
  Simulation sim(topo, config);
  (void)sim.run();

  ASSERT_EQ(sink.count(TraceEventKind::kLinkDown), 1u);
  ASSERT_EQ(sink.count(TraceEventKind::kLinkUp), 1u);
  double down_time = -1.0;
  double up_time = -1.0;
  for (const TraceEvent& event : sink.events()) {
    if (event.kind == TraceEventKind::kLinkDown) {
      down_time = event.time;
      EXPECT_EQ(event.source, 0u);
      EXPECT_EQ(event.destination, 1u);
    }
    if (event.kind == TraceEventKind::kLinkUp) {
      up_time = event.time;
    }
  }
  EXPECT_DOUBLE_EQ(down_time, 50.0);
  EXPECT_DOUBLE_EQ(up_time, 100.0);
}

TEST(SimulationTracing, NoSinkMeansNoOverheadPath) {
  // Smoke: runs identically with tracing disabled (results must match a
  // traced run — tracing is observation only).
  const net::Topology topo = net::topologies::ring(6);
  SimulationConfig config;
  config.traffic.arrival_rate = 5.0;
  config.traffic.mean_holding_s = 30.0;
  config.traffic.flow_bandwidth_bps = 64'000.0;
  config.traffic.sources = {1, 2};
  config.group_members = {0, 3};
  config.warmup_s = 50.0;
  config.measure_s = 200.0;
  config.seed = 5;
  Simulation untraced(topo, config);
  const SimulationResult a = untraced.run();
  MemoryTraceSink sink;
  config.trace = &sink;
  Simulation traced(topo, config);
  const SimulationResult b = traced.run();
  EXPECT_EQ(a.offered, b.offered);
  EXPECT_EQ(a.admitted, b.admitted);
  EXPECT_DOUBLE_EQ(a.admission_probability, b.admission_probability);
}

}  // namespace
}  // namespace anyqos::sim
