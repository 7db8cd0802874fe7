// chaosfuzz: fuzz the fault-schedule plane, shrink what breaks, commit the
// repro.
//
//   # fuzz from the built-in base, write repro artifacts on failure
//   $ ./chaosfuzz --iterations=50 --seed=7 --out-prefix=/tmp/cf
//
//   # replay a (possibly shrunk) repro deterministically
//   $ ./chaosfuzz --replay=/tmp/cf-repro.json
//
//   # save the built-in base scenario for hand editing; replaying a file
//   # also checks it (a malformed one is rejected before its first event)
//   $ ./chaosfuzz --save-default=base.json
//
// Exit codes: 0 = clean (nothing found / replay clean), 1 = violation found
// (repro written) or replay reproduced a violation, 2 = usage error.
#include <exception>
#include <fstream>
#include <iostream>
#include <sstream>
#include <string>

#include "src/audit/chaos_oracle.h"
#include "src/sim/scenario.h"
#include "src/sim/trace.h"
#include "src/util/cli.h"
#include "tools/chaosfuzz/fuzzer.h"

namespace {

using anyqos::audit::ChaosOracleOptions;
using anyqos::audit::ChaosOracleOutcome;
using anyqos::audit::run_chaos_oracle;
using anyqos::sim::load_scenario_file;
using anyqos::sim::save_scenario;
using anyqos::sim::Scenario;

void write_file(const std::string& path, const std::string& contents) {
  std::ofstream out(path, std::ios::binary);
  if (!out) {
    throw std::invalid_argument("cannot open for writing: " + path);
  }
  out << contents;
}

/// Writes the repro triple: scenario JSON, flight-recorder JSONL, flow trace
/// CSV. The scenario alone replays the failure; the other two are the
/// forensics that shipped with the failing run.
void write_artifacts(const std::string& prefix, const Scenario& scenario,
                     const ChaosOracleOutcome& outcome, const std::string& trace_csv) {
  write_file(prefix + "-repro.json", save_scenario(scenario));
  std::cout << "wrote " << prefix << "-repro.json\n";
  if (!outcome.flight_dump.empty()) {
    write_file(prefix + "-flight.jsonl", outcome.flight_dump);
    std::cout << "wrote " << prefix << "-flight.jsonl\n";
  }
  if (!trace_csv.empty()) {
    write_file(prefix + "-trace.csv", trace_csv);
    std::cout << "wrote " << prefix << "-trace.csv\n";
  }
}

void print_outcome(const ChaosOracleOutcome& outcome) {
  if (outcome.clean()) {
    std::cout << "verdict: clean\n";
    return;
  }
  std::cout << "verdict: " << outcome.violation_class << "\n";
  if (!outcome.detail.empty()) {
    std::cout << "detail: " << outcome.detail << "\n";
  }
  if (!outcome.audit_log.empty()) {
    std::cout << outcome.audit_log;
  }
}

int run(int argc, const char* const* argv) {
  anyqos::util::CliFlags flags(
      "chaosfuzz",
      "Deterministic fault-schedule fuzzing with delta-debug shrinking. "
      "Mutates a base scenario along every fault axis, runs each candidate "
      "through the full oracle stack (auditor, watchdog, leak/reconciliation/"
      "breaker gates), and shrinks the first failure to a minimal replayable "
      "repro.");
  flags.add_string("base", "", "base scenario file (empty = built-in base)");
  flags.add_string("save-default", "", "write the built-in base scenario here and exit");
  flags.add_string("replay", "", "run one scenario file through the oracle and exit");
  flags.add_unsigned("iterations", 50, "candidates to generate");
  flags.add_unsigned("mutations", 4, "mutations per candidate");
  flags.add_unsigned("seed", 1, "fuzz RNG seed (mutation choices)");
  flags.add_unsigned("shrink-budget", 150, "max oracle runs while shrinking");
  flags.add_string("out-prefix", "chaosfuzz", "artifact path prefix for failures");
  flags.add_bool("defeat-duplex-idempotency", false,
                 "TEST ONLY: disable the duplex-outage idempotency guard (planted bug)");
  flags.add_bool("quiet", false, "suppress per-iteration progress lines");
  flags.parse(argc, argv);
  if (flags.help_requested()) {
    std::cout << flags.help_text();
    return 0;
  }

  if (!flags.get_string("save-default").empty()) {
    write_file(flags.get_string("save-default"),
               save_scenario(anyqos::chaosfuzz::default_base_scenario()));
    std::cout << "wrote " << flags.get_string("save-default") << "\n";
    return 0;
  }

  ChaosOracleOptions oracle;
  oracle.defeat_duplex_idempotency = flags.get_bool("defeat-duplex-idempotency");

  if (!flags.get_string("replay").empty()) {
    const Scenario scenario = load_scenario_file(flags.get_string("replay"));
    std::ostringstream trace_csv;
    anyqos::sim::CsvTraceSink trace(trace_csv);
    oracle.trace = &trace;
    const ChaosOracleOutcome outcome = run_chaos_oracle(scenario, oracle);
    print_outcome(outcome);
    if (!outcome.clean() && !outcome.flight_dump.empty()) {
      write_file(flags.get_string("out-prefix") + "-flight.jsonl", outcome.flight_dump);
      std::cout << "wrote " << flags.get_string("out-prefix") << "-flight.jsonl\n";
    }
    return outcome.clean() ? 0 : 1;
  }

  const Scenario base = flags.get_string("base").empty()
                            ? anyqos::chaosfuzz::default_base_scenario()
                            : load_scenario_file(flags.get_string("base"));
  anyqos::chaosfuzz::FuzzOptions options;
  options.seed = flags.get_unsigned("seed");
  options.iterations = flags.get_unsigned("iterations");
  options.mutations_per_candidate = flags.get_unsigned("mutations");
  options.shrink_budget = flags.get_unsigned("shrink-budget");
  options.oracle = oracle;

  std::ostream* log = flags.get_bool("quiet") ? nullptr : &std::cout;
  const anyqos::chaosfuzz::FuzzReport report = anyqos::chaosfuzz::fuzz(base, options, log);
  std::cout << "[chaosfuzz] " << report.iterations_run << " candidates, "
            << report.oracle_runs << " oracle runs\n";
  if (!report.found) {
    std::cout << "verdict: clean\n";
    return 0;
  }

  // Re-run the shrunk repro once with a trace sink armed so the committed
  // artifacts describe the minimal scenario, not the original candidate.
  std::ostringstream trace_csv;
  anyqos::sim::CsvTraceSink trace(trace_csv);
  ChaosOracleOptions forensic = oracle;
  forensic.trace = &trace;
  const ChaosOracleOutcome final_outcome =
      run_chaos_oracle(report.shrunk.scenario, forensic);
  print_outcome(final_outcome);
  write_artifacts(flags.get_string("out-prefix"), report.shrunk.scenario, final_outcome,
                  trace_csv.str());
  std::cout << "[chaosfuzz] shrunk " << report.shrunk.initial_entries << " -> "
            << report.shrunk.final_entries << " fault entries\n";
  return 1;
}

}  // namespace

int main(int argc, char** argv) {
  try {
    return run(argc, argv);
  } catch (const std::exception& error) {
    std::cerr << "chaosfuzz: " << error.what() << "\n";
    return 2;
  }
}
