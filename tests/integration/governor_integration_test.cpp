// End-to-end contract of the overload-protection control plane: the
// governor is deterministic (same seed, same config -> byte-identical
// timeline artifacts, control actions included), a governor that never acts
// leaves the run indistinguishable from the static baseline, a chaos-grade
// drain ends with every breaker out of the Open state, shed requests are
// accounted separately from capacity rejections end to end (result, trace,
// spans, metrics export), and the resilient plane's recovery events pull
// the flight-recorder trigger with the causal window attached.
#include <gtest/gtest.h>

#include <algorithm>
#include <sstream>
#include <string>

#include "src/control/governor.h"
#include "src/net/topologies.h"
#include "src/obs/flight_recorder.h"
#include "src/obs/registry.h"
#include "src/obs/span.h"
#include "src/obs/timeline.h"
#include "src/sim/churn.h"
#include "src/sim/faults.h"
#include "src/sim/metrics_export.h"
#include "src/sim/simulation.h"
#include "src/sim/trace.h"

namespace anyqos {
namespace {

/// MCI backbone pushed hard enough that feedback windows classify hot.
sim::SimulationConfig overload_config() {
  sim::SimulationConfig config;
  config.traffic.arrival_rate = 60.0;
  config.traffic.mean_holding_s = 60.0;
  config.traffic.flow_bandwidth_bps = 64'000.0;
  config.traffic.sources = {1, 3, 5, 7, 9, 11, 13, 15, 17};
  config.group_members = {0, 4, 8, 12, 16};
  config.algorithm = core::SelectionAlgorithm::kDistanceHistory;
  config.max_tries = 5;
  config.warmup_s = 100.0;
  config.measure_s = 500.0;
  config.seed = 7;
  return config;
}

TEST(GovernorIntegration, SameSeedRunsAreByteIdenticalWithControlEngaged) {
  const net::Topology topo = net::topologies::mci_backbone();
  control::GovernorStats first_stats;
  const auto render = [&topo, &first_stats] {
    sim::SimulationConfig config = overload_config();
    control::GovernorOptions options;
    options.window_s = 50.0;
    config.governor = options;
    obs::Timeline timeline(obs::TimelineOptions{50.0});
    config.timeline = &timeline;
    sim::Simulation simulation(topo, config);
    (void)simulation.run();
    first_stats = simulation.governor()->stats();
    std::ostringstream jsonl;
    timeline.write_jsonl(jsonl);
    return jsonl.str();
  };
  const std::string first = render();
  const control::GovernorStats stats = first_stats;
  const std::string second = render();
  EXPECT_EQ(first, second);
  // The determinism claim is only meaningful if the loop actually acted.
  EXPECT_GT(stats.tighten_steps, 0u);
  EXPECT_EQ(stats.tighten_steps, first_stats.tighten_steps);
  EXPECT_EQ(stats.relax_steps, first_stats.relax_steps);
  // The timeline carries the control-plane columns.
  EXPECT_NE(first.find("governor_effective_r"), std::string::npos);
  EXPECT_NE(first.find("governor_open_breakers"), std::string::npos);
}

TEST(GovernorIntegration, IdleGovernorMatchesTheStaticBaseline) {
  // Thresholds pushed out of reach: the adaptive bound stays at the ceiling
  // (where AdaptiveRetrialPolicy is CounterRetrialPolicy in disguise),
  // breakers never trip, no budget is configured. The run must then be
  // bit-identical to a governor-free run — control is pay-for-what-you-use.
  const net::Topology topo = net::topologies::mci_backbone();
  sim::SimulationConfig config = overload_config();
  sim::SimulationConfig baseline_config = config;

  control::GovernorOptions options;
  options.hot_rejection_rate = 1.0;
  options.hot_utilization = 1.0;
  options.cool_rejection_rate = 0.0;
  options.breaker.failure_threshold = 1'000'000;
  config.governor = options;
  sim::Simulation with_governor(topo, config);
  const sim::SimulationResult a = with_governor.run();
  sim::Simulation baseline(topo, baseline_config);
  const sim::SimulationResult b = baseline.run();

  EXPECT_EQ(a.offered, b.offered);
  EXPECT_EQ(a.admitted, b.admitted);
  EXPECT_EQ(a.messages.total(), b.messages.total());
  EXPECT_DOUBLE_EQ(a.admission_probability, b.admission_probability);
  EXPECT_DOUBLE_EQ(a.average_attempts, b.average_attempts);
  EXPECT_DOUBLE_EQ(a.average_active_flows, b.average_active_flows);
  EXPECT_EQ(a.shed, 0u);
  EXPECT_EQ(with_governor.governor()->stats().tighten_steps, 0u);
  EXPECT_EQ(with_governor.governor()->stats().breaker_trips, 0u);
}

TEST(GovernorIntegration, ChaosDrainLeavesNoBreakerOpen) {
  // Chaos-grade run: message loss, two member outages, a link fault, full
  // governor. The churn trips breakers mid-run; cooldown timers are one-shot
  // and keep firing through the drain, so quiescence means no member is
  // still masked Open — the CI gate chaossim enforces the same invariant.
  const net::Topology topo = net::topologies::ring(6);
  sim::SimulationConfig config;
  config.traffic.arrival_rate = 5.0;
  config.traffic.mean_holding_s = 30.0;
  config.traffic.flow_bandwidth_bps = 64'000.0;
  config.traffic.sources = {1, 2, 5};
  config.group_members = {0, 3};
  config.algorithm = core::SelectionAlgorithm::kEvenDistribution;
  config.max_tries = 2;
  config.warmup_s = 100.0;
  config.measure_s = 600.0;
  config.seed = 31;
  config.drain_to_quiescence = true;
  signaling::ResilienceOptions resilience;
  resilience.faults.loss_probability = 0.15;
  resilience.retransmit_timeout_s = 0.5;
  resilience.max_retransmits = 2;
  resilience.orphan_hold_s = 20.0;
  config.resilience = resilience;
  config.churn.push_back(sim::single_churn(0, 250.0, 350.0));
  config.churn.push_back(sim::single_churn(1, 450.0, 520.0));
  config.faults.push_back(sim::single_fault(1, 2, 300.0, 450.0));

  control::GovernorOptions options;
  options.breaker.cooldown_s = 30.0;
  config.governor = options;

  sim::Simulation simulation(topo, config);
  const sim::SimulationResult result = simulation.run();

  const control::OverloadGovernor& governor = *simulation.governor();
  EXPECT_GE(governor.stats().breaker_trips, 2u);  // one per churned member
  EXPECT_EQ(governor.open_breakers(), 0u);
  EXPECT_EQ(simulation.active_flows(), 0u);
  EXPECT_DOUBLE_EQ(simulation.ledger().total_reserved(), 0.0);
  EXPECT_GT(result.offered, 1'000u);
  EXPECT_EQ(result.shed, 0u);  // no budget configured
}

TEST(GovernorIntegration, ShedRequestsAreAccountedSeparatelyEndToEnd) {
  const net::Topology topo = net::topologies::mci_backbone();
  sim::SimulationConfig config = overload_config();
  config.warmup_s = 0.0;  // trace/span streams cover exactly the run
  config.measure_s = 300.0;

  control::GovernorOptions options;
  options.shed_budget_msgs_per_s = 20.0;  // far below the offered walk rate
  config.governor = options;

  sim::MemoryTraceSink trace;
  config.trace = &trace;
  obs::MemorySpanSink spans;
  obs::DecisionTracer tracer;
  tracer.set_sink(&spans);
  config.tracer = &tracer;

  sim::Simulation simulation(topo, config);
  const sim::SimulationResult result = simulation.run();

  ASSERT_GT(result.shed, 0u);
  EXPECT_EQ(result.shed, simulation.governor()->stats().shed);
  // Shed requests never join the offered tally or the AP denominator.
  EXPECT_EQ(trace.count(sim::TraceEventKind::kShed), result.shed);
  EXPECT_EQ(trace.count(sim::TraceEventKind::kAdmitted), result.admitted);
  EXPECT_EQ(trace.count(sim::TraceEventKind::kRejected), result.offered - result.admitted);
  // Every shed request still gets a decision span: zero attempts, zero
  // messages, algorithm "shed" — so span streams stay complete.
  const auto shed_spans = static_cast<std::uint64_t>(
      std::count_if(spans.decisions().begin(), spans.decisions().end(),
                    [](const obs::DecisionSpan& span) { return span.algorithm == "shed"; }));
  EXPECT_EQ(shed_spans, result.shed);
  EXPECT_EQ(spans.decisions().size(), result.offered + result.shed);
  for (const obs::DecisionSpan& span : spans.decisions()) {
    if (span.algorithm == "shed") {
      EXPECT_FALSE(span.admitted);
      EXPECT_EQ(span.attempts, 0u);
      EXPECT_EQ(span.messages, 0u);
    }
  }
  // The export grows an outcome="shed" row — and only when sheds happened.
  obs::MetricsRegistry registry;
  sim::export_metrics(simulation, config, result, registry);
  std::ostringstream prom;
  registry.write_prometheus(prom);
  EXPECT_NE(prom.str().find("outcome=\"shed\""), std::string::npos);
}

TEST(GovernorIntegration, RecoveryEventsPullTheFlightRecorderTrigger) {
  // High loss against a tight retransmit budget forces give-ups, and lost
  // RESV/TEAR messages strand reservations until the soft-state hold timer
  // expires: both recovery paths must pull the trigger with the victim's
  // decision spans already teed into the ring.
  const net::Topology topo = net::topologies::ring(6);
  sim::SimulationConfig config;
  config.traffic.arrival_rate = 5.0;
  config.traffic.mean_holding_s = 30.0;
  config.traffic.flow_bandwidth_bps = 64'000.0;
  config.traffic.sources = {1, 2, 5};
  config.group_members = {0, 3};
  config.algorithm = core::SelectionAlgorithm::kEvenDistribution;
  config.max_tries = 2;
  config.warmup_s = 0.0;
  config.measure_s = 300.0;
  config.seed = 31;
  config.drain_to_quiescence = true;
  signaling::ResilienceOptions resilience;
  resilience.faults.loss_probability = 0.3;
  resilience.retransmit_timeout_s = 0.5;
  resilience.max_retransmits = 1;
  resilience.orphan_hold_s = 20.0;
  config.resilience = resilience;

  obs::FlightRecorder recorder(obs::FlightRecorderOptions{65536, 100'000});
  std::ostringstream dump;
  recorder.set_output(&dump);
  obs::DecisionTracer tracer;
  tracer.set_sink(&recorder.span_sink());
  config.flight_recorder = &recorder;
  config.tracer = &tracer;

  sim::Simulation simulation(topo, config);
  const sim::SimulationResult result = simulation.run();

  ASSERT_GT(result.resilience.give_ups, 0u);
  ASSERT_GT(result.resilience.orphans_reclaimed, 0u);
  EXPECT_GT(recorder.triggers(), 0u);
  const std::string text = dump.str();
  EXPECT_NE(text.find("\"reason\":\"retransmit_exhaustion dst="), std::string::npos);
  EXPECT_NE(text.find("\"reason\":\"orphan_expiry dst="), std::string::npos);
  // The causal window carries decision spans, not just the trigger note.
  EXPECT_NE(text.find("\"request\":"), std::string::npos);
}

}  // namespace
}  // namespace anyqos
