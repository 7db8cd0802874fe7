// The chaos oracle: run one Scenario through every correctness gate the
// repo has and return a single classified verdict.
//
// Every chaossim cell, chaossim --scenario, tools/chaosfuzz and perfbench's
// chaos workload need the exact same judgement — "did this fault schedule
// break anything, and what class of breakage was it?" — so it lives here,
// once. The oracle runs the scenario under a throwing InvariantAuditor with
// a flight recorder armed, then applies the post-drain gates in a fixed
// severity order:
//
//   invalid:<what>      scenario failed validation/construction (not a bug)
//   audit:<check>       an invariant auditor check fired
//   exception:<what>    the model threw outside the auditor (e.g. ledger
//                       preconditions — the planted-bug class)
//   hang:<reason>       the drain watchdog tripped (no quiescence)
//   leak:<kind>         reserved bandwidth / flows / orphans / repairs
//                       survived a clean drain
//   unreconciled        hop mirror != MessageCounter (exact-count runs only)
//   breaker-open        a circuit breaker survived the drain Open
//
// The class string is the shrinker's preservation target: a shrunk scenario
// reproduces the original failure only if its class matches exactly.
#pragma once

#include <memory>
#include <sstream>
#include <string>

#include "src/audit/auditor.h"
#include "src/obs/flight_recorder.h"
#include "src/obs/span.h"
#include "src/sim/scenario.h"
#include "src/sim/simulation.h"
#include "src/sim/trace.h"

namespace anyqos::audit {

struct ChaosOracleOptions {
  /// Auditor checkpoint period (simulated seconds).
  double checkpoint_interval_s = 50.0;
  /// Flight-recorder ring depth for the violation dump.
  std::size_t flight_depth = 256;
  /// Watchdog fallbacks applied when the scenario itself sets no cap — the
  /// oracle never runs an unbounded drain (unattended fuzzing must not
  /// hang). 0 disables the fallback.
  std::size_t fallback_drain_max_events = 10'000'000;
  double fallback_drain_max_sim_s = 10'000.0;
  /// TEST ONLY: forwarded to SimulationConfig::defeat_duplex_idempotency
  /// (the chaosfuzz planted-bug gate).
  bool defeat_duplex_idempotency = false;
  /// Optional flow-event observer (e.g. a CsvTraceSink so a failing run
  /// leaves a flowlens-able artifact). Must outlive the call.
  sim::TraceSink* trace = nullptr;
};

/// One classified run. `violation_class` empty = clean.
struct ChaosOracleOutcome {
  std::string violation_class;
  std::string detail;          ///< human diagnostic (counts, messages)
  bool ran = false;            ///< run() returned (false for invalid:/audit:/exception:)
  sim::SimulationResult result;  ///< valid when `ran`
  std::string flight_dump;     ///< buffered flight JSONL ("" when nothing dumped)
  std::string audit_log;       ///< auditor findings text ("" when clean)

  [[nodiscard]] bool clean() const { return violation_class.empty(); }
};

/// The oracle in four steps, for callers that attach their own observers
/// between lowering and running (chaossim keeps each cell's spans,
/// timeline, kernel stats, metrics and ops labels this way):
///
///   ChaosOracle oracle(scenario, options);            // 1. lower
///   if (sim::ScenarioRun* run = oracle.lowered()) {   // 2. attach observers
///     run->config.timeline = &timeline;
///   }
///   const ChaosOracleOutcome outcome = oracle.run();  // 3. run, 4. judge
///   sim::export_metrics(*oracle.simulation(), ...);   // still readable
///
/// Only detached planes (observers that perturb nothing) belong in step 2,
/// and they must outlive run().
class ChaosOracle {
 public:
  /// Step 1: lowers `scenario`. A scenario that fails validation leaves
  /// lowered() null, and run() returns its invalid: verdict.
  explicit ChaosOracle(const sim::Scenario& scenario, const ChaosOracleOptions& options = {});
  ChaosOracle(const ChaosOracle&) = delete;
  ChaosOracle& operator=(const ChaosOracle&) = delete;

  /// Step 2: the lowered run whose config takes the caller's observers, or
  /// nullptr when lowering failed.
  [[nodiscard]] sim::ScenarioRun* lowered() { return run_.get(); }
  /// The recorder every decision span lands in; set_forward() tees the
  /// spans on to a caller's sink.
  [[nodiscard]] obs::FlightRecorder& flight_recorder() { return recorder_; }
  [[nodiscard]] const obs::DecisionTracer& tracer() const { return tracer_; }

  /// Steps 3 and 4: constructs the simulation, runs it under the throwing
  /// auditor and classifies the outcome. Call once.
  ChaosOracleOutcome run();

  /// The simulation run() constructed (nullptr when lowering or the
  /// Simulation constructor rejected the scenario). Its post-run state
  /// stays readable, e.g. for sim::export_metrics.
  [[nodiscard]] const sim::Simulation* simulation() const { return simulation_.get(); }

 private:
  /// Step 4: the post-run gates, most severe first.
  void judge(ChaosOracleOutcome& outcome) const;

  // Declaration order is teardown order reversed: the auditor detaches from
  // the simulation, which must still be alive.
  ChaosOracleOptions options_;
  bool reconciliation_checkable_;
  std::string invalid_;  ///< lowering failure (empty when lowered)
  std::unique_ptr<sim::ScenarioRun> run_;
  std::unique_ptr<sim::Simulation> simulation_;
  obs::DecisionTracer tracer_;
  std::ostringstream flight_buffer_;
  obs::FlightRecorder recorder_;
  InvariantAuditor auditor_;
};

/// Runs `scenario` to completion under the full oracle stack. Deterministic:
/// equal scenarios produce byte-equal outcomes.
ChaosOracleOutcome run_chaos_oracle(const sim::Scenario& scenario,
                                    const ChaosOracleOptions& options = {});

}  // namespace anyqos::audit
