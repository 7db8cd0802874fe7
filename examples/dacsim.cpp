// dacsim — the general-purpose simulation front end (ns-style tooling).
//
// Runs one DAC simulation: any built-in or file-loaded topology, any
// group/source placement, any <A,R> system or the GDI baseline, with
// optional fault injection and a CSV event trace. The workload, system and
// fault flags write a scenario (sim/scenario.h) that is lowered exactly like
// a --scenario file; the remaining flags attach observers to the run.
// Prints the aggregate results the paper reports plus this library's extra
// diagnostics. A rejected flag or configuration prints one `dacsim: ...`
// line and exits 2.
//
//   $ ./dacsim --algorithm=WD/D+H --retries=2 --lambda=35
//   $ ./dacsim --topology=grid:4x5 --group=0,7,19 --sources=2,9,12 --lambda=8
//   $ ./dacsim --topology=file:mynet.topo --gdi --trace=/tmp/events.csv
//   $ ./dacsim --metrics-out=run.prom --spans-out=spans.jsonl --profile
//   $ ./dacsim --timeline-out=tl.csv --flight-recorder=flight.jsonl --fault-rate=1e-4
#include <exception>
#include <fstream>
#include <iostream>

#include "src/audit/auditor.h"
#include "src/control/directive.h"
#include "src/control/governor.h"
#include "src/obs/flight_recorder.h"
#include "src/obs/kernel_stats.h"
#include "src/obs/ops_server.h"
#include "src/obs/profiler.h"
#include "src/obs/registry.h"
#include "src/obs/span.h"
#include "src/obs/timeline.h"
#include "src/sim/metrics_export.h"
#include "src/sim/scenario.h"
#include "src/util/cli.h"
#include "src/util/require.h"
#include "src/util/strings.h"
#include "src/util/table.h"

namespace {

using namespace anyqos;

std::vector<net::NodeId> parse_nodes(const std::string& text, const char* what) {
  std::vector<net::NodeId> nodes;
  for (const std::string& field : util::split(text, ',')) {
    const auto value = util::parse_unsigned(field);
    util::require(value.has_value(), std::string(what) + " must be a comma list of node ids");
    nodes.push_back(static_cast<net::NodeId>(*value));
  }
  return nodes;
}

bool ops_plane(const util::CliFlags& flags) {
  return !flags.get_string("ops-port").empty() || !flags.get_string("ops-replay").empty() ||
         !flags.get_string("ops-log").empty();
}

/// The scenario the workload, system and fault flags describe.
sim::Scenario scenario_from_flags(const util::CliFlags& flags) {
  sim::Scenario scenario;
  scenario.name = "dacsim";
  scenario.topology = flags.get_string("topology");
  scenario.seed = flags.get_unsigned("seed");
  scenario.lambda = flags.get_double("lambda");
  scenario.mean_holding_s = flags.get_double("holding");
  scenario.flow_bandwidth_bps = flags.get_double("bandwidth");
  if (flags.get_string("sources").empty()) {
    const std::size_t routers = sim::build_scenario_topology(scenario.topology).router_count();
    for (net::NodeId id = 1; id < routers; id += 2) {
      scenario.sources.push_back(id);
    }
  } else {
    scenario.sources = parse_nodes(flags.get_string("sources"), "--sources");
  }
  scenario.algorithm = flags.get_string("algorithm");
  scenario.max_tries = flags.get_unsigned("retries");
  scenario.alpha = flags.get_double("alpha");
  scenario.anycast_share = flags.get_double("share");
  scenario.group = parse_nodes(flags.get_string("group"), "--group");
  scenario.failover_readmit = flags.get_bool("failover");
  scenario.path_repair = flags.get_bool("path-repair");
  scenario.warmup_s = flags.get_double("warmup");
  scenario.measure_s = flags.get_double("measure");
  scenario.drain_to_quiescence = flags.get_bool("drain");
  scenario.drain_max_events = flags.get_unsigned("drain-max-events");
  scenario.drain_max_sim_s = flags.get_double("drain-max-sim");
  if (flags.get_bool("resilient") || flags.get_double("loss") > 0.0 ||
      flags.get_double("hop-delay") > 0.0) {
    sim::ScenarioResilience& resilience = scenario.resilience.emplace();
    resilience.loss_probability = flags.get_double("loss");
    resilience.hop_delay_s = flags.get_double("hop-delay");
    resilience.retransmit_timeout_s = flags.get_double("retransmit-timeout");
    resilience.max_retransmits = flags.get_unsigned("max-retransmits");
    resilience.orphan_hold_s = flags.get_double("orphan-hold");
  }
  scenario.axes.link_rate = flags.get_double("fault-rate");
  scenario.axes.link_mean_repair_s = flags.get_double("fault-repair");
  scenario.axes.churn_rate = flags.get_double("churn-rate");
  scenario.axes.churn_mean_down_s = flags.get_double("churn-downtime");
  if (flags.get_double("node-mtbf") > 0.0) {
    scenario.axes.node_rate = 1.0 / flags.get_double("node-mtbf");
    scenario.axes.node_mean_repair_s = flags.get_double("node-mttr");
  }
  // Any engaged failure-plane axis brings a reconvergence policy with it:
  // routes must eventually route around a dead router, and path repair
  // re-signals over the post-convergence table by definition.
  const double reconverge_delay = flags.get_double("reconverge-delay");
  if (scenario.axes.node_rate > 0.0 || scenario.path_repair || reconverge_delay > 0.0) {
    scenario.reconvergence = reconverge_delay > 0.0
                                 ? sim::ScenarioReconvergence{"fixed", reconverge_delay}
                                 : sim::ScenarioReconvergence{};
  }
  const bool governor_flags = flags.get_bool("adaptive") || flags.get_bool("breaker") ||
                              flags.get_double("shed-budget") > 0.0;
  if (governor_flags || ops_plane(flags)) {
    sim::ScenarioGovernor& governor = scenario.governor.emplace();
    governor.window_s = flags.get_double("governor-window");
    // The ops plane steers through the governor, so an ops-enabled run gets
    // one even without governor flags — then with both mechanisms engaged.
    governor.adaptive_retrial = !governor_flags || flags.get_bool("adaptive");
    governor.member_breakers = !governor_flags || flags.get_bool("breaker");
    governor.min_tries = flags.get_unsigned("min-retries");
    governor.breaker_threshold = flags.get_unsigned("breaker-threshold");
    governor.breaker_cooldown_s = flags.get_double("breaker-cooldown");
    governor.shed_budget_msgs_per_s = flags.get_double("shed-budget");
    governor.shed_burst_msgs = flags.get_double("shed-burst");
  }
  if (!flags.get_string("ops-replay").empty()) {
    std::ifstream replay_file(flags.get_string("ops-replay"));
    util::require(replay_file.good(), "cannot open ops replay file");
    scenario.ops = control::load_ops_log(replay_file);
  }
  return scenario;
}

int run(int argc, char** argv) {
  util::CliFlags flags("dacsim", "Configurable DAC anycast-flow simulation");
  flags.add_string("scenario", "",
                   "run this scenario file (sim/scenario.h); replaces the workload/system/"
                   "fault flags, observability flags and --gdi still apply");
  flags.add_string("topology", "mci",
                   "mci | line:N | ring:N | star:N | grid:RxC | waxman:NxSEED | file:PATH "
                   "(a topology file, see topology_io.h)");
  flags.add_string("group", "0,4,8,12,16", "anycast member routers");
  flags.add_string("sources", "", "source routers (default: the paper's odd ids)");
  flags.add_string("algorithm", "ED", "ED | WD/D+H | WD/D+B | SP");
  flags.add_bool("gdi", false, "run the GDI oracle baseline instead of DAC");
  flags.add_unsigned("retries", 2, "R, the maximum destinations tried");
  flags.add_double("alpha", 0.5, "WD/D+H history discount");
  flags.add_double("lambda", 20.0, "total arrival rate, requests/s");
  flags.add_double("holding", 180.0, "mean flow lifetime, seconds");
  flags.add_double("bandwidth", 64'000.0, "per-flow bandwidth, bit/s");
  flags.add_double("share", 0.2, "fraction of link capacity available to anycast");
  flags.add_double("warmup", 2'000.0, "warm-up seconds discarded");
  flags.add_double("measure", 10'000.0, "measured seconds");
  flags.add_unsigned("seed", 1, "master RNG seed");
  flags.add_double("fault-rate", 0.0, "per-link failures/s (0 = no faults)");
  flags.add_double("fault-repair", 300.0, "mean outage duration, seconds");
  flags.add_double("node-mtbf", 0.0, "mean seconds between router crashes (0 = no crashes)");
  flags.add_double("node-mttr", 600.0, "mean router recovery time, seconds");
  flags.add_duration("reconverge-delay", 0.0,
                     "routing reconvergence lag after a topology change (0 = instant)");
  flags.add_bool("path-repair", false,
                 "re-signal broken flows over post-reconvergence routes (make-before-break)");
  flags.add_bool("resilient", false, "use the resilient signaling plane even at zero loss");
  flags.add_probability("loss", 0.0, "control-message loss probability (implies --resilient)");
  flags.add_duration("hop-delay", 0.0, "injected control-plane delay per hop, seconds");
  flags.add_duration("retransmit-timeout", 1.0, "wait before the first PATH retransmit, seconds");
  flags.add_unsigned("max-retransmits", 3, "PATH re-sends before giving up");
  flags.add_duration("orphan-hold", 30.0, "soft-state hold before orphan reclaim, seconds");
  flags.add_bool("adaptive", false, "AIMD-adapt the retrial bound from windowed feedback");
  flags.add_bool("breaker", false, "per-member circuit breakers (mask failing members)");
  flags.add_double("shed-budget", 0.0, "PATH-message budget/s; exhausted -> fast-reject (0 = off)");
  flags.add_double("shed-burst", 0.0, "shed bucket depth, messages (0 = 2 x budget)");
  flags.add_double("governor-window", 50.0, "feedback window for the overload governor, seconds");
  flags.add_unsigned("min-retries", 3, "floor the adaptive bound may tighten to");
  flags.add_unsigned("breaker-threshold", 5, "consecutive failures that trip a member breaker");
  flags.add_duration("breaker-cooldown", 60.0, "seconds a tripped breaker stays open");
  flags.add_double("churn-rate", 0.0, "per-member outages/s (0 = no churn)");
  flags.add_duration("churn-downtime", 300.0, "mean member outage duration, seconds");
  flags.add_bool("failover", true, "re-admit flows displaced by member churn");
  flags.add_bool("drain", false, "drain to quiescence after the measurement window");
  flags.add_unsigned("drain-max-events", 0,
                     "drain watchdog: abort the drain after this many events (0 = uncapped)");
  flags.add_duration("drain-max-sim", 0.0,
                     "drain watchdog: abort the drain this many sim-seconds past the horizon "
                     "(0 = uncapped)");
  flags.add_string("trace", "", "write a CSV event trace to this file");
  flags.add_bool("audit", true, "attach the runtime invariant auditor");
  flags.add_double("audit-interval", 100.0, "seconds between audit checkpoints");
  flags.add_string("metrics-out", "",
                   "write run metrics here (.prom = Prometheus text, else JSONL)");
  flags.add_string("spans-out", "", "write admission-decision spans here (JSONL)");
  flags.add_string("timeline-out", "",
                   "write the windowed telemetry timeline here (.csv = wide CSV, else JSONL)");
  flags.add_double("timeline-interval", 50.0, "simulated seconds between timeline samples");
  flags.add_string("flight-recorder", "",
                   "dump fault-triggered flight snapshots to this file (JSONL)");
  flags.add_string("kernel-stats-out", "",
                   "write per-category kernel event telemetry here (JSONL)");
  flags.add_unsigned("flight-depth", 256, "flight-recorder ring capacity, entries");
  flags.add_bool("profile", false, "print engine profiling summary after the run");
  flags.add_string("profile-out", "", "write the profiling summary + phase timers as JSON");
  flags.add_string("ops-port", "", "serve the live ops plane on this TCP port (0 = ephemeral)");
  flags.add_string("ops-log", "", "append applied control directives here (JSONL)");
  flags.add_string("ops-replay", "",
                   "re-apply a recorded ops log (serverless re-run; not with --scenario, "
                   "which carries its own ops)");
  flags.add_double("ops-interval", 50.0, "simulated seconds between ops polls");
  flags.parse(argc, argv);
  if (flags.help_requested()) {
    std::cout << flags.help_text();
    return 0;
  }

  // One run description either way: the --scenario file or the scenario
  // the flags write, lowered by the same make_scenario_run. Everything
  // below only attaches observers to the lowered config.
  const std::string scenario_path = flags.get_string("scenario");
  util::require(scenario_path.empty() || flags.get_string("ops-replay").empty(),
                "--ops-replay conflicts with --scenario (the scenario carries its own ops)");
  const sim::Scenario scenario =
      scenario_path.empty() ? scenario_from_flags(flags) : sim::load_scenario_file(scenario_path);
  const std::unique_ptr<sim::ScenarioRun> run = sim::make_scenario_run(scenario);
  const net::Topology& topology = run->topology;
  sim::SimulationConfig& config = run->config;
  config.use_gdi = flags.get_bool("gdi");

  // --- Live ops plane (DESIGN.md §13) ---
  // The mailbox outlives the server: the accept thread's control handler
  // posts into it, so it must be destroyed after the server joins.
  control::DirectiveMailbox ops_mailbox;
  std::ofstream ops_log_file;
  std::unique_ptr<control::OpsLogWriter> ops_log;
  std::unique_ptr<obs::OpsServer> ops_server;
  if (!flags.get_string("ops-log").empty()) {
    ops_log_file.open(flags.get_string("ops-log"));
    util::require(ops_log_file.good(), "cannot open ops log file");
    ops_log = std::make_unique<control::OpsLogWriter>(ops_log_file);
    config.ops_log = ops_log.get();
  }
  if (const std::string ops_port = flags.get_string("ops-port"); !ops_port.empty()) {
    const auto port = util::parse_unsigned(ops_port);
    util::require(port.has_value() && *port <= 65'535,
                  "--ops-port must be a TCP port number (0 = ephemeral)");
    obs::OpsServerOptions server_options;
    server_options.port = static_cast<std::uint16_t>(*port);
    ops_server = std::make_unique<obs::OpsServer>(server_options);
    ops_server->set_control_handler(obs::mailbox_control_handler(ops_mailbox));
    ops_server->start();
    config.ops_server = ops_server.get();
    config.ops_mailbox = &ops_mailbox;
    // Flushed eagerly: scripts watching a redirected stdout need the port
    // (ephemeral with --ops-port=0) before the run finishes.
    std::cout << "ops server        http://127.0.0.1:" << ops_server->port()
              << "  (GET /metrics /healthz /status, POST /control/<knob>)" << std::endl;
  }
  if (ops_plane(flags)) {
    config.ops_interval_s = flags.get_double("ops-interval");
  }

  std::ofstream trace_file;
  std::unique_ptr<sim::CsvTraceSink> trace;
  if (!flags.get_string("trace").empty()) {
    trace_file.open(flags.get_string("trace"));
    util::require(trace_file.good(), "cannot open trace file");
    trace = std::make_unique<sim::CsvTraceSink>(trace_file);
    config.trace = trace.get();
  }

  std::ofstream spans_file;
  std::unique_ptr<obs::JsonlSpanSink> span_sink;
  obs::DecisionTracer tracer;
  if (!flags.get_string("spans-out").empty()) {
    util::require(!config.use_gdi, "--spans-out requires a DAC run (not --gdi)");
    spans_file.open(flags.get_string("spans-out"));
    util::require(spans_file.good(), "cannot open spans file");
    span_sink = std::make_unique<obs::JsonlSpanSink>(spans_file);
    tracer.set_sink(span_sink.get());
    config.tracer = &tracer;
  }

  std::unique_ptr<obs::KernelStats> kernel_stats;
  if (!flags.get_string("kernel-stats-out").empty()) {
    kernel_stats = std::make_unique<obs::KernelStats>();
    config.kernel_stats = kernel_stats.get();
  }

  std::unique_ptr<obs::Timeline> timeline;
  if (!flags.get_string("timeline-out").empty()) {
    obs::TimelineOptions timeline_options;
    timeline_options.interval_s = flags.get_double("timeline-interval");
    timeline = std::make_unique<obs::Timeline>(timeline_options);
    config.timeline = timeline.get();
  }

  std::ofstream flight_file;
  std::unique_ptr<obs::FlightRecorder> recorder;
  if (!flags.get_string("flight-recorder").empty()) {
    obs::FlightRecorderOptions flight_options;
    flight_options.depth = flags.get_unsigned("flight-depth");
    recorder = std::make_unique<obs::FlightRecorder>(flight_options);
    flight_file.open(flags.get_string("flight-recorder"));
    util::require(flight_file.good(), "cannot open flight-recorder file");
    recorder->set_output(&flight_file);
    config.flight_recorder = recorder.get();
    if (!config.use_gdi) {
      // Decision spans land in the ring; when --spans-out is also set the
      // ring tees every span on to the JSONL file, so both artifacts come
      // from the one tracer.
      recorder->set_forward(span_sink.get());  // nullptr detaches: ring only
      tracer.set_sink(&recorder->span_sink());
      config.tracer = &tracer;
    }
  }

  obs::EngineProfiler profiler;
  const bool profiling = flags.get_bool("profile") || !flags.get_string("profile-out").empty();
  if (profiling) {
    config.profiler = &profiler;
  }

  sim::Simulation simulation(topology, config);
  // The auditor escalates the first invariant violation as InvariantError,
  // so a corrupted run aborts loudly instead of printing plausible numbers.
  std::unique_ptr<audit::InvariantAuditor> auditor;
  if (flags.get_bool("audit")) {
    audit::AuditorOptions audit_options;
    audit_options.checkpoint_interval_s = flags.get_double("audit-interval");
    auditor = std::make_unique<audit::InvariantAuditor>(audit_options);
    auditor->attach(simulation);
    if (recorder != nullptr) {
      // A violation dumps the causal window before throw_on_violation aborts.
      auditor->set_violation_hook([&recorder](const audit::Violation& violation) {
        recorder->trigger(violation.sim_time, "audit " + audit::to_string(violation.check));
      });
    }
  }
  const sim::SimulationResult result = simulation.run();
  if (ops_server != nullptr) {
    ops_server->stop();  // free the port before summaries; documents stay published
  }

  std::cout << "system            " << result.system_label << "\n"
            << "topology          " << topology.router_count() << " routers, "
            << topology.duplex_link_count() << " duplex links\n"
            << "offered           " << result.offered << " requests (lambda "
            << config.traffic.arrival_rate << "/s over " << config.measure_s << " s)\n"
            << "admitted          " << result.admitted << "\n"
            << "admission prob    " << util::format_fixed(result.admission_probability, 6)
            << "  (95% CI ±" << util::format_fixed(result.admission_ci.half_width, 6) << ")\n"
            << "avg tries         " << util::format_fixed(result.average_attempts, 4) << "\n"
            << "msgs/request      " << util::format_fixed(result.average_messages, 2) << "\n"
            << "avg active flows  " << util::format_fixed(result.average_active_flows, 1) << "\n"
            << "link utilization  mean " << util::format_fixed(result.mean_link_utilization, 4)
            << ", max " << util::format_fixed(result.max_link_utilization, 4) << "\n"
            << "dropped flows     " << result.dropped << " (faults " << result.dropped_by_fault
            << ", churn " << result.dropped_by_churn << ")\n";
  if (simulation.drain_watchdog().tripped) {
    const sim::DrainWatchdogReport& watchdog = simulation.drain_watchdog();
    std::cout << "drain watchdog    TRIPPED (" << watchdog.reason << "): "
              << watchdog.pending_events << " events and " << watchdog.active_flows
              << " flows still pending at t=" << util::format_fixed(watchdog.sim_time_s, 1)
              << " after " << watchdog.drained_events << " drained events\n";
  }
  if (!config.churn.empty()) {
    std::cout << "churn events      " << config.churn.size() << " outages, failover "
              << result.failover_admitted << "/" << result.failover_attempts
              << " re-admitted\n";
  }
  if (scenario.reconvergence.has_value()) {
    std::cout << "failure plane     " << result.node_outages << " node outages, "
              << result.reconvergences << " reconvergences (" << scenario.reconvergence->policy
              << " policy)\n";
    if (config.path_repair) {
      std::cout << "path repair       " << result.repaired << " repaired, "
                << result.unrepairable << " unrepairable, " << simulation.pending_repairs()
                << " pending at end\n";
    }
  }
  if (config.resilience.has_value()) {
    std::cout << "control plane     " << result.resilience.retransmits << " retransmits, "
              << result.resilience.give_ups << " give-ups, "
              << result.resilience.messages_lost << " lost, "
              << result.resilience.orphans_reclaimed << " orphans reclaimed ("
              << util::format_fixed(result.resilience.orphaned_bandwidth_reclaimed_bps / 1e6, 2)
              << " Mbit/s)\n";
  }
  if (const control::OverloadGovernor* governor = simulation.governor(); governor != nullptr) {
    const control::GovernorStats& gov = governor->stats();
    std::cout << "overload governor R " << governor->effective_max_tries() << "/"
              << governor->max_tries_ceiling() << " effective/ceiling, " << gov.windows
              << " windows (" << gov.tighten_steps << " tightened, " << gov.relax_steps
              << " relaxed)\n";
    if (governor->options().member_breakers) {
      std::cout << "member breakers   " << gov.breaker_trips << " trips, "
                << gov.breaker_probes << " probes, " << gov.breaker_closes << " closes, "
                << governor->open_breakers() << " open at end\n";
    }
    if (governor->options().shed_budget_msgs_per_s > 0.0) {
      std::cout << "load shedding     " << result.shed
                << " requests fast-rejected (measured window; lifetime " << gov.shed << ")\n";
    }
  }
  if (ops_server != nullptr) {
    std::cout << "ops server        " << ops_server->requests_served() << " requests served, "
              << simulation.ops_directives_applied() << " directives applied\n";
  }
  if (!flags.get_string("ops-replay").empty()) {
    std::cout << "ops replay        " << simulation.ops_directives_applied() << "/"
              << config.ops_replay.size() << " directives re-applied from "
              << flags.get_string("ops-replay") << "\n";
  }
  if (ops_log != nullptr) {
    std::cout << "ops log           " << ops_log->entries() << " entries -> "
              << flags.get_string("ops-log") << "\n";
  }
  if (auditor != nullptr) {
    std::cout << "audit violations  " << auditor->log().size()
              << " (ledger conservation/pairing, weight norm, retrial, checkpoints every "
              << util::format_fixed(flags.get_double("audit-interval"), 0) << " s)\n";
  }

  util::TablePrinter per_dest({"member router", "admissions"});
  for (std::size_t i = 0; i < result.per_destination_admissions.size(); ++i) {
    per_dest.add_row({topology.router_name(config.group_members[i]),
                      std::to_string(result.per_destination_admissions[i])});
  }
  std::cout << "\n" << per_dest.to_text();

  util::TablePrinter msg({"message kind", "link traversals"});
  using signaling::MessageKind;
  for (const MessageKind kind :
       {MessageKind::kPath, MessageKind::kResv, MessageKind::kPathErr, MessageKind::kTear,
        MessageKind::kProbe, MessageKind::kProbeReply}) {
    msg.add_row({signaling::to_string(kind), std::to_string(result.messages.by_kind(kind))});
  }
  std::cout << "\n" << msg.to_text();
  if (trace != nullptr) {
    std::cout << "\ntrace written to " << flags.get_string("trace") << "\n";
  }

  if (!flags.get_string("metrics-out").empty()) {
    obs::MetricsRegistry registry;
    sim::export_metrics(simulation, config, result, registry);
    if (profiling) {
      profiler.export_to(registry);
    }
    const std::string& path = flags.get_string("metrics-out");
    std::ofstream metrics_file(path);
    util::require(metrics_file.good(), "cannot open metrics file");
    if (util::ends_with(path, ".prom")) {
      registry.write_prometheus(metrics_file);
    } else {
      registry.write_jsonl(metrics_file);
    }
    std::cout << "\nmetrics written to " << path << " (" << registry.series_count()
              << " series)\n";
  }
  if (span_sink != nullptr) {
    std::cout << "spans written to " << flags.get_string("spans-out") << " ("
              << tracer.spans_emitted() << " spans)\n";
  }
  if (timeline != nullptr) {
    const std::string& path = flags.get_string("timeline-out");
    std::ofstream timeline_file(path);
    util::require(timeline_file.good(), "cannot open timeline file");
    if (util::ends_with(path, ".csv")) {
      timeline->write_csv(timeline_file);
    } else {
      timeline->write_jsonl(timeline_file);
    }
    std::cout << "timeline written to " << path << " (" << timeline->samples().size()
              << " samples x " << timeline->columns().size() << " columns)\n";
  }
  if (kernel_stats != nullptr) {
    const std::string& path = flags.get_string("kernel-stats-out");
    std::ofstream kernel_file(path);
    util::require(kernel_file.good(), "cannot open kernel-stats file");
    kernel_stats->write_jsonl(kernel_file);
    std::cout << "kernel stats written to " << path << " ("
              << kernel_stats->total_scheduled() << " scheduled, "
              << kernel_stats->total_fired() << " fired, "
              << kernel_stats->total_cancelled() << " cancelled)\n";
  }
  if (recorder != nullptr) {
    std::cout << "flight recorder   " << recorder->triggers() << " triggers, "
              << recorder->dumps_written() << " snapshots -> "
              << flags.get_string("flight-recorder") << "\n";
  }
  if (profiling) {
    const obs::ProfileSummary summary = profiler.summary();
    std::cout << "\nengine profile    " << summary.events << " events in "
              << util::format_fixed(summary.wall_seconds, 3) << " s wall ("
              << util::format_fixed(summary.events_per_second / 1e6, 3) << " M events/s, "
              << util::format_fixed(summary.sim_seconds_per_wall_second, 0)
              << " sim-s per wall-s)\n"
              << "peak queue depth  " << summary.peak_queue_depth << "\n"
              << "phases           ";
    const char* separator = " ";
    for (const auto& [phase, seconds] : profiler.phases()) {
      std::cout << separator << phase << ' ' << util::format_fixed(seconds, 3) << " s";
      separator = ", ";
    }
    std::cout << "\n";
    if (!flags.get_string("profile-out").empty()) {
      std::ofstream profile_file(flags.get_string("profile-out"));
      util::require(profile_file.good(), "cannot open profile file");
      profiler.write_json(profile_file);
      std::cout << "profile written to " << flags.get_string("profile-out") << "\n";
    }
  }
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  try {
    return run(argc, argv);
  } catch (const std::exception& error) {
    std::cerr << "dacsim: " << error.what() << "\n";
    return 2;
  }
}
