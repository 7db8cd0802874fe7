// End-to-end reconciliation of the observability layers: decision spans,
// the CSV/flow trace, the metrics registry, and the engine profiler must
// all describe the same run, exactly.
#include <gtest/gtest.h>

#include <map>
#include <set>
#include <sstream>
#include <utility>

#include "src/audit/auditor.h"
#include "src/net/topologies.h"
#include "src/obs/kernel_stats.h"
#include "src/obs/profiler.h"
#include "src/obs/registry.h"
#include "src/obs/span.h"
#include "src/obs/timeline.h"
#include "src/sim/faults.h"
#include "src/sim/metrics_export.h"
#include "src/sim/simulation.h"
#include "src/sim/trace.h"

namespace anyqos {
namespace {

sim::SimulationConfig small_mci_config() {
  sim::SimulationConfig config;
  config.traffic.arrival_rate = 20.0;
  config.traffic.mean_holding_s = 60.0;
  config.traffic.flow_bandwidth_bps = 64'000.0;
  config.traffic.sources = {1, 3, 5, 7, 9, 11, 13, 15, 17};
  config.group_members = {0, 4, 8, 12, 16};
  config.algorithm = core::SelectionAlgorithm::kEvenDistribution;
  config.max_tries = 2;
  // No warm-up: spans cover every request, so span-derived statistics must
  // reconcile exactly with the measured aggregates.
  config.warmup_s = 0.0;
  config.measure_s = 400.0;
  config.seed = 21;
  return config;
}

TEST(ObservabilityIntegration, SpansReconcileExactlyWithMetrics) {
  const net::Topology topo = net::topologies::mci_backbone();
  sim::SimulationConfig config = small_mci_config();
  obs::MemorySpanSink spans;
  obs::DecisionTracer tracer;
  tracer.set_sink(&spans);
  config.tracer = &tracer;
  sim::MemoryTraceSink trace;
  config.trace = &trace;

  sim::Simulation simulation(topo, config);
  const sim::SimulationResult result = simulation.run();
  ASSERT_GT(result.offered, 100u);

  // One root span per offered request, each with its children accounted for.
  ASSERT_EQ(spans.decisions().size(), result.offered);
  std::uint64_t admitted = 0;
  std::uint64_t attempts_sum = 0;
  std::map<std::size_t, std::uint64_t> admissions_by_member;
  std::set<std::uint64_t> request_ids;
  for (const obs::DecisionSpan& root : spans.decisions()) {
    EXPECT_TRUE(request_ids.insert(root.request_id).second);
    EXPECT_GE(root.attempts, 1u);
    EXPECT_LE(root.attempts, config.max_tries);
    EXPECT_EQ(spans.attempts_for(root.request_id).size(), root.attempts);
    attempts_sum += root.attempts;
    if (root.admitted) {
      ++admitted;
      ASSERT_TRUE(root.destination_index.has_value());
      ++admissions_by_member[*root.destination_index];
    } else {
      EXPECT_FALSE(root.destination_index.has_value());
    }
  }

  // Exact agreement with the collector's aggregates.
  EXPECT_EQ(admitted, result.admitted);
  EXPECT_DOUBLE_EQ(static_cast<double>(admitted) / static_cast<double>(result.offered),
                   result.admission_probability);
  EXPECT_DOUBLE_EQ(static_cast<double>(attempts_sum) / static_cast<double>(result.offered),
                   result.average_attempts);
  for (std::size_t i = 0; i < result.per_destination_admissions.size(); ++i) {
    EXPECT_EQ(admissions_by_member[i], result.per_destination_admissions[i])
        << "member " << i;
  }

  // The flow trace joins against spans: every flow event's request id names
  // a decision span, and admitted/rejected counts line up.
  std::size_t traced_admitted = 0;
  std::size_t traced_rejected = 0;
  for (const sim::TraceEvent& event : trace.events()) {
    switch (event.kind) {
      case sim::TraceEventKind::kAdmitted:
        ++traced_admitted;
        EXPECT_EQ(request_ids.count(event.flow), 1u);
        break;
      case sim::TraceEventKind::kRejected:
        ++traced_rejected;
        EXPECT_EQ(request_ids.count(event.flow), 1u);
        break;
      case sim::TraceEventKind::kDeparted:
      case sim::TraceEventKind::kDropped:
        EXPECT_EQ(request_ids.count(event.flow), 1u);
        break;
      case sim::TraceEventKind::kFailover:
        EXPECT_EQ(request_ids.count(event.flow), 1u);
        break;
      case sim::TraceEventKind::kLinkDown:
      case sim::TraceEventKind::kLinkUp:
      case sim::TraceEventKind::kMemberDown:
      case sim::TraceEventKind::kMemberUp:
      case sim::TraceEventKind::kShed:          // no governor in this run
      case sim::TraceEventKind::kNodeDown:      // no node faults in this run
      case sim::TraceEventKind::kNodeUp:
      case sim::TraceEventKind::kReconverged:   // no reconvergence policy either
      case sim::TraceEventKind::kRepaired:
      case sim::TraceEventKind::kRepairFailed:
        break;
    }
  }
  EXPECT_EQ(traced_admitted, result.admitted);
  EXPECT_EQ(traced_admitted + traced_rejected, result.offered);

  // The exported registry repeats the same numbers.
  obs::MetricsRegistry registry;
  sim::export_metrics(simulation, config, result, registry);
  EXPECT_DOUBLE_EQ(
      registry.gauge("anyqos_admission_probability", "", {{"system", result.system_label}})
          .value(),
      result.admission_probability);
  EXPECT_EQ(registry
                .counter("anyqos_requests_total", "",
                         {{"system", result.system_label}, {"outcome", "admitted"}})
                .value(),
            result.admitted);
  EXPECT_EQ(registry.cardinality("anyqos_admissions_total"), config.group_members.size());
  EXPECT_EQ(registry.cardinality("anyqos_link_utilization"), topo.link_count());
  // The attempts histogram replay preserves count and mean.
  std::ostringstream prom;
  registry.write_prometheus(prom);
  EXPECT_NE(prom.str().find("anyqos_attempts_per_request_count"), std::string::npos);
}

TEST(ObservabilityIntegration, AttachedPlanesChargeNoMessages) {
  // Decision spans snapshot the weights of every attempt, the timeline
  // samples a weight gauge per member, and the auditor checkpoints the
  // weight norm: all three read selector weights. For WD/D+B that read must
  // not send probes, or attaching a plane moves the signaling tallies.
  const net::Topology topo = net::topologies::mci_backbone();
  for (const auto algorithm :
       {core::SelectionAlgorithm::kEvenDistribution, core::SelectionAlgorithm::kDistanceHistory,
        core::SelectionAlgorithm::kDistanceBandwidth, core::SelectionAlgorithm::kShortestPath}) {
    sim::SimulationConfig bare = small_mci_config();
    bare.algorithm = algorithm;
    bare.measure_s = 300.0;
    sim::SimulationConfig observed = bare;
    obs::MemorySpanSink spans;
    obs::DecisionTracer tracer;
    tracer.set_sink(&spans);
    observed.tracer = &tracer;
    obs::Timeline timeline(obs::TimelineOptions{50.0});
    observed.timeline = &timeline;

    sim::Simulation plain(topo, bare);
    const sim::SimulationResult a = plain.run();
    sim::Simulation watched(topo, observed);
    audit::InvariantAuditor auditor;
    auditor.attach(watched);
    const sim::SimulationResult b = watched.run();

    const std::string label = core::to_string(algorithm);
    ASSERT_GT(a.offered, 100u) << label;
    ASSERT_FALSE(spans.decisions().empty()) << label;
    ASSERT_FALSE(timeline.samples().empty()) << label;
    EXPECT_TRUE(auditor.log().empty()) << label << "\n" << auditor.log().to_text();
    EXPECT_EQ(a.offered, b.offered) << label;
    EXPECT_EQ(a.admitted, b.admitted) << label;
    for (std::size_t kind = 0; kind < signaling::kMessageKindCount; ++kind) {
      const auto message_kind = static_cast<signaling::MessageKind>(kind);
      EXPECT_EQ(a.messages.by_kind(message_kind), b.messages.by_kind(message_kind))
          << label << " " << signaling::to_string(message_kind);
    }
    EXPECT_EQ(a.average_messages, b.average_messages) << label;
  }
}

TEST(ObservabilityIntegration, SpanIntegritySurvivesFaultInducedDrops) {
  const net::Topology topo = net::topologies::mci_backbone();
  sim::SimulationConfig config = small_mci_config();
  config.faults = sim::random_fault_schedule(topo, config.measure_s, 0.001, 50.0,
                                             config.seed + 1);
  obs::MemorySpanSink spans;
  obs::DecisionTracer tracer;
  tracer.set_sink(&spans);
  config.tracer = &tracer;
  sim::MemoryTraceSink trace;
  config.trace = &trace;

  sim::Simulation simulation(topo, config);
  const sim::SimulationResult result = simulation.run();
  ASSERT_EQ(spans.decisions().size(), result.offered);

  // Parent/child integrity holds even when faults tear flows down and drive
  // retrial exhaustion: children sum to the parents' attempt counts and no
  // span id repeats.
  std::set<std::uint64_t> span_ids;
  std::size_t attempts_total = 0;
  std::set<std::uint64_t> admitted_requests;
  for (const obs::DecisionSpan& root : spans.decisions()) {
    const auto children = spans.attempts_for(root.request_id);
    ASSERT_EQ(children.size(), root.attempts);
    for (std::size_t i = 0; i < children.size(); ++i) {
      EXPECT_EQ(children[i].attempt_number, i + 1);
      EXPECT_TRUE(span_ids.insert(children[i].span_id).second);
      ++attempts_total;
    }
    if (root.admitted) {
      admitted_requests.insert(root.request_id);
    }
  }
  EXPECT_EQ(spans.attempts().size(), attempts_total);

  // Every dropped flow in the trace refers back to an admitted decision.
  std::size_t dropped = 0;
  for (const sim::TraceEvent& event : trace.events()) {
    if (event.kind == sim::TraceEventKind::kDropped) {
      ++dropped;
      EXPECT_EQ(admitted_requests.count(event.flow), 1u);
    }
  }
  EXPECT_EQ(dropped, result.dropped);
}

TEST(ObservabilityIntegration, ProfilerObservesTheRunWithoutPerturbingIt) {
  const net::Topology topo = net::topologies::mci_backbone();
  sim::SimulationConfig config = small_mci_config();
  sim::Simulation plain(topo, config);
  const sim::SimulationResult baseline = plain.run();

  obs::EngineProfiler profiler;
  config.profiler = &profiler;
  sim::Simulation profiled(topo, config);
  const sim::SimulationResult observed = profiled.run();

  // Profiling is wall-clock-only: virtual-time results are unchanged.
  EXPECT_EQ(observed.offered, baseline.offered);
  EXPECT_EQ(observed.admitted, baseline.admitted);
  EXPECT_DOUBLE_EQ(observed.admission_probability, baseline.admission_probability);
  EXPECT_DOUBLE_EQ(observed.average_attempts, baseline.average_attempts);

  const obs::ProfileSummary summary = profiler.summary();
  EXPECT_GT(summary.events, 0u);
  EXPECT_GT(summary.wall_seconds, 0.0);
  EXPECT_GT(summary.events_per_second, 0.0);
  EXPECT_GT(summary.sim_seconds_per_wall_second, 0.0);
  EXPECT_EQ(summary.events, profiled.simulator().dispatched_events());
  EXPECT_EQ(summary.peak_queue_depth, profiled.simulator().peak_pending_events());
  EXPECT_GT(profiler.phase_seconds("measure"), 0.0);
  // warmup_s is 0, so the warmup phase is timed but essentially empty.
  EXPECT_LT(profiler.phase_seconds("warmup"), profiler.phase_seconds("measure"));
}

// The profiler schedules nothing, so a draining run still runs its calendar
// dry: the unbounded drain returns, and a capped one never trips.
TEST(ObservabilityIntegration, ProfiledDrainEndsWithAnEmptyCalendar) {
  const net::Topology topo = net::topologies::mci_backbone();
  sim::SimulationConfig config = small_mci_config();
  config.drain_to_quiescence = true;

  config.drain_max_events = 100'000;
  obs::EngineProfiler capped_profiler;
  config.profiler = &capped_profiler;
  sim::Simulation capped(topo, config);
  (void)capped.run();
  // ASSERT, not EXPECT: if the drain cannot quiesce, the unbounded run
  // below would never return.
  ASSERT_FALSE(capped.drain_watchdog().tripped) << capped.drain_watchdog().reason;
  EXPECT_EQ(capped.simulator().pending_events(), 0u);

  config.drain_max_events = 0;
  obs::EngineProfiler profiler;
  config.profiler = &profiler;
  sim::Simulation unbounded(topo, config);
  (void)unbounded.run();
  EXPECT_EQ(unbounded.simulator().pending_events(), 0u);
  EXPECT_EQ(unbounded.simulator().dispatched_events(),
            capped.simulator().dispatched_events());
  ASSERT_EQ(profiler.phases().size(), 3u);
  EXPECT_EQ(profiler.phases().back().first, "drain");
}

// Attaching the profiler changes no kernel telemetry: same dispatch count
// and byte-equal kernel-stats artifact (same category taxonomy, same
// per-category counts) as an unprofiled run at the same seed.
TEST(ObservabilityIntegration, ProfilerLeavesKernelTelemetryUnchanged) {
  const net::Topology topo = net::topologies::mci_backbone();
  sim::SimulationConfig config = small_mci_config();
  config.faults = sim::random_fault_schedule(topo, config.measure_s, 0.001, 50.0,
                                             config.seed + 1);
  const auto run = [&](obs::EngineProfiler* profiler) {
    obs::KernelStats stats;
    sim::SimulationConfig run_config = config;
    run_config.kernel_stats = &stats;
    run_config.profiler = profiler;
    sim::Simulation simulation(topo, run_config);
    (void)simulation.run();
    std::ostringstream jsonl;
    stats.write_jsonl(jsonl);
    return std::make_pair(simulation.simulator().dispatched_events(), jsonl.str());
  };
  const auto [plain_events, plain_jsonl] = run(nullptr);
  obs::EngineProfiler profiler;
  const auto [profiled_events, profiled_jsonl] = run(&profiler);
  EXPECT_EQ(profiled_events, plain_events);
  EXPECT_EQ(profiled_jsonl, plain_jsonl);
  EXPECT_EQ(profiler.summary().events, plain_events);
}

}  // namespace
}  // namespace anyqos
