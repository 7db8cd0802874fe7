// chaossim — chaos harness for the resilient signaling plane.
//
// Sweeps a fault matrix — control-message loss x injected hop delay x member
// churn x link faults x router crashes. Each cell is written as a scenario
// (sim/scenario.h) and judged by the chaos oracle (audit/chaos_oracle.h),
// the same gate chaosfuzz and --scenario use: the cell runs to quiescence
// (arrivals stop after the measurement window, the calendar runs dry) under
// a throwing InvariantAuditor and passes when it ends with an empty flow
// table, zero reserved bandwidth, zero pending orphans, an empty path-repair
// queue, no Open breaker, and a signaling hop tally that reconciles exactly
// with the MessageCounter. Exits 1 if any cell fails, which makes the
// binary a CI gate; a rejected flag prints one `chaossim: ...` line and
// exits 2.
//
// Cells on the node-fault axis (--node-mtbfs entries > 0) run the full
// failure-domain plane: Poisson router crashes, link-state flooding
// reconvergence, and make-before-break path repair.
//
//   $ ./chaossim
//   $ ./chaossim --losses=0,0.1,0.3 --churn-rates=0,0.005 --fault-rate=1e-4
//   $ ./chaossim --node-mtbfs=0,4000 --node-mttr=120 --measure=2000
//   $ ./chaossim --topology=grid:3x3 --group=0,8 --measure=2000 --out=chaos.csv
//   $ ./chaossim --metrics-out=chaos.prom --spans-out=spans.jsonl --flight-prefix=/tmp/flight
//
// Every cell runs with the oracle's flight recorder: when a link fault,
// member churn, or audit finding fires, the cell's bounded causal snapshot
// is written to <flight-prefix>-cell<N>.jsonl if --flight-prefix is given
// (cells without a trigger write nothing). Without it, chaossim writes no
// file it was not asked for.
#include <exception>
#include <fstream>
#include <iostream>
#include <memory>
#include <sstream>
#include <string>
#include <vector>

#include "src/audit/chaos_oracle.h"
#include "src/control/directive.h"
#include "src/control/governor.h"
#include "src/obs/flight_recorder.h"
#include "src/obs/kernel_stats.h"
#include "src/obs/ops_server.h"
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

std::vector<double> parse_probabilities(const std::string& text, const char* what) {
  std::vector<double> values;
  for (const std::string& field : util::split(text, ',')) {
    const auto value = util::parse_double(field);
    util::require(value.has_value() && *value >= 0.0 && *value <= 1.0,
                  std::string(what) + " must be a comma list of probabilities in [0,1]");
    values.push_back(*value);
  }
  util::require(!values.empty(), std::string(what) + " must not be empty");
  return values;
}

std::vector<double> parse_rates(const std::string& text, const char* what) {
  std::vector<double> values;
  for (const std::string& field : util::split(text, ',')) {
    const auto value = util::parse_double(field);
    util::require(value.has_value() && *value >= 0.0,
                  std::string(what) + " must be a comma list of non-negative rates");
    values.push_back(*value);
  }
  util::require(!values.empty(), std::string(what) + " must not be empty");
  return values;
}

/// One matrix cell's axis settings.
struct Cell {
  std::uint64_t index = 0;
  double loss = 0.0;
  double churn_rate = 0.0;
  bool faults_on = false;
  double node_mtbf = 0.0;
};

/// The scenario one matrix cell runs: ED with R = 2 (probe-free, so the hop
/// mirror must reconcile exactly with the MessageCounter), zero warm-up (the
/// counter is never reset mid-run), resilient signaling, and the cell's
/// random fault axes drawn at seed + cell.
sim::Scenario cell_scenario(const util::CliFlags& flags, const Cell& cell) {
  sim::Scenario scenario;
  scenario.name = "chaossim-cell";
  scenario.name += std::to_string(cell.index);
  scenario.topology = flags.get_string("topology");
  scenario.seed = flags.get_unsigned("seed") + cell.index;
  scenario.lambda = flags.get_double("lambda");
  scenario.mean_holding_s = flags.get_double("holding");
  scenario.flow_bandwidth_bps = flags.get_double("bandwidth");
  scenario.sources = parse_nodes(flags.get_string("sources"), "--sources");
  scenario.algorithm = "ED";
  scenario.max_tries = 2;
  scenario.group = parse_nodes(flags.get_string("group"), "--group");
  scenario.warmup_s = 0.0;
  scenario.measure_s = flags.get_double("measure");
  scenario.drain_to_quiescence = true;
  scenario.drain_max_events = flags.get_unsigned("drain-max-events");
  scenario.drain_max_sim_s = flags.get_double("drain-max-sim");

  sim::ScenarioResilience& resilience = scenario.resilience.emplace();
  resilience.loss_probability = cell.loss;
  resilience.hop_delay_s = flags.get_double("hop-delay");
  resilience.retransmit_timeout_s = flags.get_double("retransmit-timeout");
  resilience.max_retransmits = flags.get_unsigned("max-retransmits");
  resilience.orphan_hold_s = flags.get_double("orphan-hold");

  scenario.axes.churn_rate = cell.churn_rate;
  scenario.axes.churn_mean_down_s = flags.get_double("churn-downtime");
  if (cell.faults_on) {
    scenario.axes.link_rate = flags.get_double("fault-rate");
    scenario.axes.link_mean_repair_s = flags.get_double("fault-repair");
  }
  if (cell.node_mtbf > 0.0) {
    // The node-fault axis runs the full failure-domain plane: router
    // crashes, flooding reconvergence, and path repair together.
    scenario.axes.node_rate = 1.0 / cell.node_mtbf;
    scenario.axes.node_mean_repair_s = flags.get_double("node-mttr");
    scenario.reconvergence =
        sim::ScenarioReconvergence{"flooding", flags.get_double("reconverge-round")};
    scenario.path_repair = true;
  }
  if (flags.get_bool("adaptive")) {
    // The governor's floor drops to 1 so AIMD has headroom even against
    // R = 2, and the cooldown is short enough that mid-run trips (churn!)
    // probe and close well before the drain.
    sim::ScenarioGovernor& governor = scenario.governor.emplace();
    governor.min_tries = 1;
    governor.breaker_cooldown_s = 30.0;
  }
  return scenario;
}

/// <prefix>-cell<N>.jsonl, one per-cell artifact.
std::string cell_path(const std::string& prefix, std::uint64_t cell) {
  std::string path = prefix;
  path += "-cell";
  path += std::to_string(cell);
  path += ".jsonl";
  return path;
}

std::ofstream open_output(const std::string& path) {
  std::ofstream out(path);
  util::require(out.good(), "cannot open " + path);
  return out;
}

int run(int argc, char** argv) {
  util::CliFlags flags("chaossim",
                       "Chaos matrix for the resilient signaling plane (CI gate)");
  flags.add_string("scenario", "",
                   "single-scenario mode: run this scenario file (sim/scenario.h) through the"
                   " chaos oracle instead of the matrix; exit 1 on any violation");
  flags.add_string("topology", "ring:8",
                   "mci | line:N | ring:N | star:N | grid:RxC | waxman:NxSEED | file:PATH");
  flags.add_string("group", "0,4", "anycast member routers");
  flags.add_string("sources", "1,3,5,7", "source routers");
  flags.add_string("losses", "0,0.05,0.2", "comma list of loss probabilities to sweep");
  flags.add_string("churn-rates", "0,0.002", "comma list of per-member outage rates/s");
  flags.add_duration("hop-delay", 0.0005, "injected control-plane delay per hop, seconds");
  flags.add_double("fault-rate", 2e-4, "per-link failures/s for the faults-on half");
  flags.add_duration("fault-repair", 150.0, "mean link outage duration, seconds");
  flags.add_string("node-mtbfs", "0",
                   "comma list of router MTBFs (s) to sweep; 0 disables the node-fault axis,"
                   " entries > 0 run crashes + flooding reconvergence + path repair");
  flags.add_duration("node-mttr", 120.0, "mean router recovery time, seconds");
  flags.add_duration("reconverge-round", 1.0,
                     "seconds per link-state flooding round (node-fault cells)");
  flags.add_duration("churn-downtime", 120.0, "mean member outage duration, seconds");
  flags.add_duration("retransmit-timeout", 0.5, "wait before the first PATH retransmit");
  flags.add_unsigned("max-retransmits", 2, "PATH re-sends before giving up");
  flags.add_duration("orphan-hold", 20.0, "soft-state hold before orphan reclaim, seconds");
  flags.add_double("lambda", 8.0, "total arrival rate, requests/s");
  flags.add_duration("holding", 40.0, "mean flow lifetime, seconds");
  flags.add_double("bandwidth", 64'000.0, "per-flow bandwidth, bit/s");
  flags.add_duration("measure", 1'000.0, "measured seconds per cell (warm-up is zero so the"
                                         " message reconciliation stays exact)");
  flags.add_unsigned("seed", 101, "master RNG seed (each cell offsets it)");
  flags.add_unsigned("drain-max-events", 0,
                     "drain watchdog: abort a cell's drain after this many events; a tripped"
                     " watchdog fails the cell (0 = the chaos oracle's fallback cap)");
  flags.add_duration("drain-max-sim", 0.0,
                     "drain watchdog: abort a cell's drain this many sim-seconds past the"
                     " horizon (0 = the chaos oracle's fallback cap)");
  flags.add_string("out", "", "also write the matrix as CSV to this file");
  flags.add_string("metrics-out", "",
                   "write per-cell metrics here (.prom = Prometheus text, else JSONL); every"
                   " series carries a cell=<n> label");
  flags.add_string("spans-out", "", "write every cell's admission-decision spans here (JSONL)");
  flags.add_string("flight-prefix", "",
                   "write flight snapshots to <prefix>-cell<N>.jsonl (<prefix>-scenario.jsonl"
                   " with --scenario); empty writes none");
  flags.add_unsigned("flight-depth", 256, "flight-recorder ring capacity, entries");
  flags.add_bool("adaptive", false,
                 "run every cell under the overload governor (adaptive retrial + member"
                 " breakers); a breaker left Open after the drain fails the cell");
  flags.add_string("timeline-prefix", "",
                   "write each cell's windowed timeline to <prefix>-cell<N>.jsonl");
  flags.add_string("kernel-stats-prefix", "",
                   "write each cell's kernel event telemetry to <prefix>-cell<N>.jsonl");
  flags.add_double("timeline-interval", 50.0, "simulated seconds between timeline samples");
  flags.add_string("ops-port", "",
                   "serve the live ops plane on this TCP port (0 = ephemeral); one server for"
                   " the whole matrix, every series carries the running cell's cell=<n> label;"
                   " POST /control steers the governor and needs --adaptive");
  flags.parse(argc, argv);
  if (flags.help_requested()) {
    std::cout << flags.help_text();
    return 0;
  }
  audit::ChaosOracleOptions oracle_options;
  oracle_options.flight_depth = flags.get_unsigned("flight-depth");
  const std::string flight_prefix = flags.get_string("flight-prefix");  // empty: no dumps

  // Single-scenario mode: one replayable file, the full oracle stack, one
  // classified verdict. This is how a chaosfuzz-shrunk repro is re-judged
  // under the same gates CI applies to the matrix.
  if (!flags.get_string("scenario").empty()) {
    const sim::Scenario scenario = sim::load_scenario_file(flags.get_string("scenario"));
    const audit::ChaosOracleOutcome outcome = audit::run_chaos_oracle(scenario, oracle_options);
    if (outcome.clean()) {
      std::cout << "scenario '" << scenario.name << "' clean ("
                << scenario.fault_entries() << " fault entries, seed " << scenario.seed
                << ")\n";
      return 0;
    }
    std::cout << "scenario '" << scenario.name << "' FAILED: " << outcome.violation_class
              << "\n";
    if (!outcome.detail.empty()) {
      std::cout << outcome.detail << "\n";
    }
    if (!outcome.audit_log.empty()) {
      std::cout << outcome.audit_log;
    }
    if (!outcome.flight_dump.empty() && !flight_prefix.empty()) {
      std::string path = flight_prefix;
      path += "-scenario.jsonl";
      std::ofstream dump(path);
      util::require(dump.good(), "cannot open flight dump file");
      dump << outcome.flight_dump;
      std::cout << "flight snapshot written to " << path << "\n";
    }
    return 1;
  }

  const std::vector<double> losses =
      parse_probabilities(flags.get_string("losses"), "--losses");
  const std::vector<double> churn_rates =
      parse_rates(flags.get_string("churn-rates"), "--churn-rates");
  const std::vector<double> node_mtbfs =
      parse_rates(flags.get_string("node-mtbfs"), "--node-mtbfs");

  std::ofstream spans_file;
  std::unique_ptr<obs::JsonlSpanSink> shared_spans;
  if (!flags.get_string("spans-out").empty()) {
    spans_file.open(flags.get_string("spans-out"));
    util::require(spans_file.good(), "cannot open spans file");
    shared_spans = std::make_unique<obs::JsonlSpanSink>(spans_file);
  }
  std::unique_ptr<obs::MetricsRegistry> registry;
  if (!flags.get_string("metrics-out").empty()) {
    registry = std::make_unique<obs::MetricsRegistry>();
  }
  std::vector<std::string> flight_files;
  std::uint64_t flight_triggers = 0;
  std::uint64_t spans_emitted = 0;
  std::size_t timeline_files = 0;
  std::size_t kernel_stats_files = 0;

  // One ops server spans the whole matrix: each cell re-publishes /metrics
  // with its own cell=<n> label, so a scraper watching the sweep sees the
  // running cell. The mailbox only drains into cells that carry a governor.
  control::DirectiveMailbox ops_mailbox;
  std::unique_ptr<obs::OpsServer> ops_server;
  if (!flags.get_string("ops-port").empty()) {
    const auto port = util::parse_unsigned(flags.get_string("ops-port"));
    util::require(port.has_value() && *port <= 65'535,
                  "--ops-port must be a TCP port number (0 = ephemeral)");
    obs::OpsServerOptions server_options;
    server_options.port = static_cast<std::uint16_t>(*port);
    ops_server = std::make_unique<obs::OpsServer>(server_options);
    if (flags.get_bool("adaptive")) {
      ops_server->set_control_handler(obs::mailbox_control_handler(ops_mailbox));
    }
    ops_server->start();
    std::cout << "ops server        http://127.0.0.1:" << ops_server->port()
              << "  (one server, cell=<n> labels)" << std::endl;
  }

  util::TablePrinter table({"loss", "churn/s", "faults", "node mtbf", "AP", "retx", "orphans",
                            "dropped", "failover", "repair", "governor", "verdict"});
  std::ostringstream csv;
  csv << "loss,churn_rate,faults,node_mtbf,admission_probability,retransmits,"
         "orphans_reclaimed,dropped_by_fault,dropped_by_churn,failover_admitted,"
         "failover_attempts,node_outages,reconvergences,repaired,unrepairable,"
         "pending_repairs,adaptive,effective_r,breaker_trips,breaker_open,shed,verdict\n";

  std::size_t failures = 0;
  std::uint64_t cells = 0;
  for (const double loss : losses) {
    for (const double churn_rate : churn_rates) {
      for (const bool faults_on : {false, true}) {
        for (const double node_mtbf : node_mtbfs) {
          const Cell cell{++cells, loss, churn_rate, faults_on, node_mtbf};
          const std::string cell_label = std::to_string(cell.index);
          const sim::Scenario scenario = cell_scenario(flags, cell);
          audit::ChaosOracle oracle(scenario, oracle_options);

          // Attach this cell's observers: spans tee from the oracle's flight
          // recorder to the shared file, and the optional per-cell planes.
          oracle.flight_recorder().set_forward(shared_spans.get());  // nullptr detaches
          std::unique_ptr<obs::KernelStats> kernel_stats;
          std::unique_ptr<obs::Timeline> timeline;
          sim::ScenarioRun* run = oracle.lowered();
          if (run != nullptr) {
            if (!flags.get_string("kernel-stats-prefix").empty()) {
              kernel_stats = std::make_unique<obs::KernelStats>();
              run->config.kernel_stats = kernel_stats.get();
            }
            if (!flags.get_string("timeline-prefix").empty()) {
              obs::TimelineOptions timeline_options;
              timeline_options.interval_s = flags.get_double("timeline-interval");
              timeline = std::make_unique<obs::Timeline>(timeline_options);
              run->config.timeline = timeline.get();
            }
            if (ops_server != nullptr) {
              run->config.ops_server = ops_server.get();
              run->config.ops_labels = {{"cell", cell_label}};
              if (run->config.governor.has_value()) {
                run->config.ops_mailbox = &ops_mailbox;
              }
            }
          }
          const audit::ChaosOracleOutcome outcome = oracle.run();
          spans_emitted += oracle.tracer().spans_emitted();
          flight_triggers += oracle.flight_recorder().triggers();
          if (!outcome.clean()) {
            ++failures;
          }

          const sim::SimulationResult& result = outcome.result;
          const control::OverloadGovernor* governor =
              oracle.simulation() != nullptr ? oracle.simulation()->governor() : nullptr;
          const std::size_t pending_repairs =
              oracle.simulation() != nullptr ? oracle.simulation()->pending_repairs() : 0;
          const bool breaker_open = governor != nullptr && governor->open_breakers() > 0;
          const std::string verdict = outcome.clean() ? "clean" : outcome.violation_class;
          std::ostringstream drops;
          drops << result.dropped_by_fault << "/" << result.dropped_by_churn;
          std::ostringstream failover;
          failover << result.failover_admitted << "/" << result.failover_attempts;
          std::ostringstream repair;
          if (node_mtbf > 0.0) {
            repair << result.repaired << "/" << result.unrepairable << " conv="
                   << result.reconvergences;
          } else {
            repair << "-";
          }
          std::ostringstream gov;
          if (governor != nullptr) {
            gov << "R" << governor->effective_max_tries() << "/"
                << governor->max_tries_ceiling() << " trips=" << governor->stats().breaker_trips
                << " open=" << governor->open_breakers();
          } else {
            gov << "-";
          }
          table.add_row({util::format_fixed(loss, 2), util::format_fixed(churn_rate, 4),
                         faults_on ? "on" : "off",
                         node_mtbf > 0.0 ? util::format_fixed(node_mtbf, 0) : "off",
                         util::format_fixed(result.admission_probability, 4),
                         std::to_string(result.resilience.retransmits),
                         std::to_string(result.resilience.orphans_reclaimed), drops.str(),
                         failover.str(), repair.str(), gov.str(), verdict});
          csv << loss << ',' << churn_rate << ',' << (faults_on ? 1 : 0) << ',' << node_mtbf
              << ',' << result.admission_probability << ',' << result.resilience.retransmits
              << ',' << result.resilience.orphans_reclaimed << ',' << result.dropped_by_fault
              << ',' << result.dropped_by_churn << ',' << result.failover_admitted << ','
              << result.failover_attempts << ',' << result.node_outages << ','
              << result.reconvergences << ',' << result.repaired << ','
              << result.unrepairable << ',' << pending_repairs << ','
              << (scenario.governor.has_value() ? 1 : 0) << ','
              << (governor != nullptr ? governor->effective_max_tries() : scenario.max_tries)
              << ','
              << (governor != nullptr ? governor->stats().breaker_trips : 0) << ','
              << (breaker_open ? 1 : 0) << ',' << result.shed << ','
              << util::csv_escape(verdict) << "\n";
          if (!outcome.clean()) {
            std::cerr << "cell " << cell_label << " (loss=" << loss << " churn=" << churn_rate
                      << " faults=" << (faults_on ? "on" : "off") << " node_mtbf=" << node_mtbf
                      << "): " << outcome.violation_class << "\n"
                      << outcome.detail << "\n"
                      << outcome.audit_log;
          }
          if (registry != nullptr && outcome.ran) {
            sim::export_metrics(*oracle.simulation(), run->config, result, *registry,
                                {{"cell", cell_label}});
          }
          if (!outcome.flight_dump.empty() && !flight_prefix.empty()) {
            flight_files.push_back(cell_path(flight_prefix, cell.index));
            std::ofstream out = open_output(flight_files.back());
            out << outcome.flight_dump;
          }
          if (timeline != nullptr) {
            std::ofstream out =
                open_output(cell_path(flags.get_string("timeline-prefix"), cell.index));
            timeline->write_jsonl(out);
            ++timeline_files;
          }
          if (kernel_stats != nullptr) {
            std::ofstream out =
                open_output(cell_path(flags.get_string("kernel-stats-prefix"), cell.index));
            kernel_stats->write_jsonl(out);
            ++kernel_stats_files;
          }
        }
      }
    }
  }

  std::cout << table.to_text() << "\n"
            << cells << " cells, " << failures << " failed ("
            << losses.size() << " loss x " << churn_rates.size()
            << " churn x 2 fault x " << node_mtbfs.size()
            << " node settings; drained to quiescence, judged by the chaos oracle)\n";
  if (!flags.get_string("out").empty()) {
    std::ofstream out(flags.get_string("out"));
    util::require(out.good(), "cannot open --out file");
    out << csv.str();
    std::cout << "matrix written to " << flags.get_string("out") << "\n";
  }
  if (registry != nullptr) {
    const std::string& path = flags.get_string("metrics-out");
    std::ofstream metrics_file(path);
    util::require(metrics_file.good(), "cannot open metrics file");
    if (util::ends_with(path, ".prom")) {
      registry->write_prometheus(metrics_file);
    } else {
      registry->write_jsonl(metrics_file);
    }
    std::cout << "metrics written to " << path << " (" << registry->series_count()
              << " series)\n";
  }
  if (shared_spans != nullptr) {
    std::cout << "spans written to " << flags.get_string("spans-out") << " (" << spans_emitted
              << " spans)\n";
  }
  std::cout << "flight recorder   " << flight_triggers << " triggers, " << flight_files.size()
            << " cells dumped";
  for (const std::string& path : flight_files) {
    std::cout << " " << path;
  }
  std::cout << "\n";
  if (timeline_files > 0) {
    std::cout << "timelines written to " << flags.get_string("timeline-prefix")
              << "-cell<N>.jsonl (" << timeline_files << " cells)\n";
  }
  if (kernel_stats_files > 0) {
    std::cout << "kernel stats written to " << flags.get_string("kernel-stats-prefix")
              << "-cell<N>.jsonl (" << kernel_stats_files << " cells)\n";
  }
  if (ops_server != nullptr) {
    ops_server->stop();
    std::cout << "ops server        " << ops_server->requests_served()
              << " requests served across the matrix\n";
  }
  return failures == 0 ? 0 : 1;
}

}  // namespace

int main(int argc, char** argv) {
  try {
    return run(argc, argv);
  } catch (const std::exception& error) {
    std::cerr << "chaossim: " << error.what() << "\n";
    return 2;
  }
}
