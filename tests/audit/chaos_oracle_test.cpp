// The chaos oracle classifies one scenario run into a violation class (or
// clean). The class string is the shrinker's preservation target, so its
// exact spelling and the severity ordering are contract, not cosmetics.
#include "src/audit/chaos_oracle.h"

#include <gtest/gtest.h>

#include <string>

#include "src/obs/timeline.h"
#include "src/sim/faults.h"
#include "src/sim/trace.h"

namespace anyqos::audit {
namespace {

/// Small MCI scenario that survives the full oracle stack cleanly.
sim::Scenario clean_scenario() {
  sim::Scenario scenario;
  scenario.name = "oracle-clean";
  scenario.topology = "mci";
  scenario.seed = 3;
  scenario.lambda = 10.0;
  scenario.mean_holding_s = 30.0;
  scenario.sources = {0, 5, 13};
  scenario.group = {2, 11, 18};
  scenario.max_tries = 2;
  scenario.warmup_s = 0.0;
  scenario.measure_s = 120.0;
  scenario.link_faults.push_back(sim::single_fault(0, 1, 40.0, 80.0));
  return scenario;
}

TEST(ChaosOracle, CleanScenarioIsClean) {
  const ChaosOracleOutcome outcome = run_chaos_oracle(clean_scenario());
  EXPECT_TRUE(outcome.clean()) << outcome.violation_class << ": " << outcome.detail;
  EXPECT_TRUE(outcome.ran);
  EXPECT_GT(outcome.result.offered, 0U);
  EXPECT_TRUE(outcome.audit_log.empty());
}

TEST(ChaosOracle, IsDeterministic) {
  const ChaosOracleOutcome first = run_chaos_oracle(clean_scenario());
  const ChaosOracleOutcome second = run_chaos_oracle(clean_scenario());
  EXPECT_EQ(first.violation_class, second.violation_class);
  EXPECT_EQ(first.detail, second.detail);
  EXPECT_EQ(first.result.offered, second.result.offered);
  EXPECT_EQ(first.result.admitted, second.result.admitted);
  EXPECT_DOUBLE_EQ(first.result.admission_probability,
                   second.result.admission_probability);
}

TEST(ChaosOracle, InvalidScenarioClassifiesAsInvalidNotException) {
  sim::Scenario scenario = clean_scenario();
  scenario.link_faults.push_back(sim::single_fault(2, 7, 10.0, 20.0));  // not an MCI edge
  const ChaosOracleOutcome outcome = run_chaos_oracle(scenario);
  EXPECT_FALSE(outcome.clean());
  EXPECT_EQ(outcome.violation_class.rfind("invalid:", 0), 0U) << outcome.violation_class;
  EXPECT_FALSE(outcome.ran);
}

TEST(ChaosOracle, BadRetrialBoundIsInvalidNotException) {
  // R = 0 is the scenario's fault. It must be rejected before the run, not
  // thrown from the first request's controller as if the model were broken.
  sim::Scenario scenario = clean_scenario();
  scenario.max_tries = 0;
  const ChaosOracleOutcome outcome = run_chaos_oracle(scenario);
  EXPECT_EQ(outcome.violation_class, "invalid:retrial bound R must be at least 1");
  EXPECT_FALSE(outcome.ran);
}

TEST(ChaosOracle, PlantedBugClassifiesAsException) {
  // Overlapping outages of the same duplex link: harmless with the hold-count
  // guard, a double fail_link once the guard is defeated.
  sim::Scenario scenario = clean_scenario();
  scenario.link_faults.push_back(sim::single_fault(0, 1, 50.0, 90.0));

  const ChaosOracleOutcome guarded = run_chaos_oracle(scenario);
  EXPECT_TRUE(guarded.clean()) << guarded.violation_class;

  ChaosOracleOptions defeat;
  defeat.defeat_duplex_idempotency = true;
  const ChaosOracleOutcome outcome = run_chaos_oracle(scenario, defeat);
  EXPECT_EQ(outcome.violation_class, "exception:link is already failed");
  EXPECT_FALSE(outcome.ran);
  EXPECT_FALSE(outcome.flight_dump.empty());
}

TEST(ChaosOracle, FallbackWatchdogClassifiesNonQuiescenceAsHang) {
  // Holding times far past any cap: with the oracle's fallback sim-time cap
  // tightened, the drain cannot quiesce and must classify as hang:, not leak:.
  sim::Scenario scenario = clean_scenario();
  scenario.link_faults.clear();
  scenario.mean_holding_s = 50'000.0;
  scenario.measure_s = 60.0;
  ChaosOracleOptions options;
  options.fallback_drain_max_sim_s = 10.0;
  const ChaosOracleOutcome outcome = run_chaos_oracle(scenario, options);
  EXPECT_EQ(outcome.violation_class.rfind("hang:", 0), 0U) << outcome.violation_class;
  EXPECT_TRUE(outcome.ran);
}

TEST(ChaosOracle, ForwardsTraceSink) {
  sim::MemoryTraceSink trace;
  ChaosOracleOptions options;
  options.trace = &trace;
  const ChaosOracleOutcome outcome = run_chaos_oracle(clean_scenario(), options);
  EXPECT_TRUE(outcome.clean());
  EXPECT_GT(trace.events().size(), 0U);
}

TEST(ChaosOracle, StepsTakeObserversAndKeepTheSimulationReadable) {
  ChaosOracle oracle(clean_scenario());
  sim::ScenarioRun* run = oracle.lowered();
  ASSERT_NE(run, nullptr);
  obs::Timeline timeline;
  run->config.timeline = &timeline;
  const ChaosOracleOutcome outcome = oracle.run();

  // A detached observer perturbs nothing: same verdict, counts and dump.
  const ChaosOracleOutcome plain = run_chaos_oracle(clean_scenario());
  EXPECT_TRUE(outcome.clean()) << outcome.violation_class;
  EXPECT_EQ(outcome.result.offered, plain.result.offered);
  EXPECT_EQ(outcome.result.admitted, plain.result.admitted);
  EXPECT_EQ(outcome.flight_dump, plain.flight_dump);
  EXPECT_FALSE(timeline.samples().empty());
  ASSERT_NE(oracle.simulation(), nullptr);
  EXPECT_EQ(oracle.simulation()->active_flows(), 0U);
  EXPECT_GT(oracle.tracer().spans_emitted(), 0U);
}

TEST(ChaosOracle, InvalidScenarioLowersToNothing) {
  sim::Scenario scenario = clean_scenario();
  scenario.group.clear();
  ChaosOracle oracle(scenario);
  EXPECT_EQ(oracle.lowered(), nullptr);
  const ChaosOracleOutcome outcome = oracle.run();
  EXPECT_EQ(outcome.violation_class.rfind("invalid:", 0), 0U) << outcome.violation_class;
  EXPECT_EQ(oracle.simulation(), nullptr);
}

}  // namespace
}  // namespace anyqos::audit
