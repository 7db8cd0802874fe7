// Integration tests of the paper's qualitative claims (Section 5.2) on the
// full experiment model. Shorter runs than the benches, but long enough for
// the orderings to be statistically solid at the tested rates.
#include <gtest/gtest.h>

#include <algorithm>
#include <utility>
#include <vector>

#include "src/sim/experiment.h"

namespace anyqos::sim {
namespace {

SimulationResult run_system(const ExperimentModel& model, double lambda,
                            core::SelectionAlgorithm algorithm, std::size_t r,
                            bool use_gdi = false, PolicyFactory policy = nullptr) {
  SimulationConfig config = model.base_config(lambda);
  config.algorithm = algorithm;
  config.max_tries = r;
  config.use_gdi = use_gdi;
  config.policy = std::move(policy);
  config.warmup_s = 1'000.0;
  config.measure_s = 5'000.0;
  config.seed = 1;
  Simulation sim(model.topology, config);
  return sim.run();
}

class PaperProperties : public ::testing::Test {
 protected:
  ExperimentModel model_ = paper_model();
};

TEST_F(PaperProperties, VeryLowLoadAdmitsEssentiallyEverything) {
  // Figure 6: "in the cases of very low arrival rates ... all systems
  // perform equally" (at AP ~ 1).
  for (const auto algorithm :
       {core::SelectionAlgorithm::kEvenDistribution, core::SelectionAlgorithm::kShortestPath}) {
    const SimulationResult result = run_system(model_, 5.0, algorithm, 2);
    EXPECT_GT(result.admission_probability, 0.999) << to_string(algorithm);
  }
}

TEST_F(PaperProperties, ApDecreasesWithArrivalRate) {
  double previous = 1.01;
  for (const double lambda : {10.0, 25.0, 40.0}) {
    const SimulationResult result =
        run_system(model_, lambda, core::SelectionAlgorithm::kEvenDistribution, 2);
    EXPECT_LT(result.admission_probability, previous) << "lambda=" << lambda;
    previous = result.admission_probability;
  }
}

TEST_F(PaperProperties, RetrialsImproveAdmissionWithDiminishingReturns) {
  // Figure 3's two observations: AP grows with R; the 1->2 jump dominates.
  const double lambda = 35.0;
  std::vector<double> ap;
  for (std::size_t r = 1; r <= 5; ++r) {
    ap.push_back(run_system(model_, lambda, core::SelectionAlgorithm::kEvenDistribution, r)
                     .admission_probability);
  }
  EXPECT_GT(ap[1], ap[0] + 0.01);          // R=2 clearly beats R=1
  EXPECT_GE(ap[4], ap[1] - 0.02);          // no collapse at large R
  EXPECT_GT(ap[1] - ap[0], ap[4] - ap[3] - 0.005);  // diminishing returns
}

TEST_F(PaperProperties, SystemOrderingAtModerateLoad) {
  // Figure 6's ordering: GDI >= WD/D+B, WD/D+H >= ED >= SP (we allow small
  // statistical slack between adjacent systems, none across the whole span).
  const double lambda = 35.0;
  const double gdi =
      run_system(model_, lambda, core::SelectionAlgorithm::kEvenDistribution, 2, true)
          .admission_probability;
  const double wdb =
      run_system(model_, lambda, core::SelectionAlgorithm::kDistanceBandwidth, 2)
          .admission_probability;
  const double wdh =
      run_system(model_, lambda, core::SelectionAlgorithm::kDistanceHistory, 2)
          .admission_probability;
  const double ed = run_system(model_, lambda, core::SelectionAlgorithm::kEvenDistribution, 2)
                        .admission_probability;
  const double sp = run_system(model_, lambda, core::SelectionAlgorithm::kShortestPath, 1)
                        .admission_probability;
  const double slack = 0.02;
  EXPECT_GE(gdi, wdb - slack);
  EXPECT_GE(wdb, ed - slack);
  EXPECT_GE(wdh, ed - slack);
  EXPECT_GT(ed, sp + 0.02);   // ED clearly beats SP
  EXPECT_GT(gdi, sp + 0.05);  // the full span is wide
}

TEST_F(PaperProperties, InformedSelectorsNeedFewerRetries) {
  // Figure 7: average retrials ED > WD/D+H > WD/D+B.
  const double lambda = 40.0;
  const double ed = run_system(model_, lambda, core::SelectionAlgorithm::kEvenDistribution, 2)
                        .average_attempts;
  const double wdh =
      run_system(model_, lambda, core::SelectionAlgorithm::kDistanceHistory, 2)
          .average_attempts;
  const double wdb =
      run_system(model_, lambda, core::SelectionAlgorithm::kDistanceBandwidth, 2)
          .average_attempts;
  EXPECT_GT(ed, wdh - 0.005);
  EXPECT_GT(wdh, wdb - 0.005);
  EXPECT_GT(ed, wdb);  // the endpoints are strictly ordered
}

TEST_F(PaperProperties, GdiIsanUpperBoundAcrossLoads) {
  for (const double lambda : {20.0, 45.0}) {
    const double gdi =
        run_system(model_, lambda, core::SelectionAlgorithm::kEvenDistribution, 2, true)
            .admission_probability;
    for (const auto algorithm :
         {core::SelectionAlgorithm::kEvenDistribution, core::SelectionAlgorithm::kDistanceHistory,
          core::SelectionAlgorithm::kDistanceBandwidth}) {
      const double ap = run_system(model_, lambda, algorithm, 2).admission_probability;
      EXPECT_GE(gdi, ap - 0.015) << to_string(algorithm) << " lambda=" << lambda;
    }
  }
}

TEST_F(PaperProperties, SpConcentratesTrafficOnFewDestinations) {
  // The motivation for randomized selection: SP sends each source's flows to
  // one member, so some members starve.
  const SimulationResult sp =
      run_system(model_, 20.0, core::SelectionAlgorithm::kShortestPath, 1);
  const SimulationResult ed =
      run_system(model_, 20.0, core::SelectionAlgorithm::kEvenDistribution, 1);
  const auto spread = [](const std::vector<std::uint64_t>& counts) {
    std::uint64_t lo = counts[0];
    std::uint64_t hi = counts[0];
    for (const std::uint64_t c : counts) {
      lo = std::min(lo, c);
      hi = std::max(hi, c);
    }
    return std::pair{lo, hi};
  };
  const auto [sp_lo, sp_hi] = spread(sp.per_destination_admissions);
  const auto [ed_lo, ed_hi] = spread(ed.per_destination_admissions);
  // ED's min/max ratio is far more balanced than SP's.
  EXPECT_GT(static_cast<double>(ed_lo) / static_cast<double>(ed_hi),
            static_cast<double>(sp_lo) / static_cast<double>(std::max<std::uint64_t>(sp_hi, 1)) +
                0.2);
}

TEST_F(PaperProperties, CentralizedSitsBetweenDacAndGdi) {
  // Section 1's alternative, measured: the agency's global (fixed-route)
  // view upper-bounds every DAC system; GDI's free path choice bounds it.
  const double lambda = 35.0;
  const SimulationResult ctrl =
      run_system(model_, lambda, core::SelectionAlgorithm::kEvenDistribution, 2, false,
                 centralized_policy(8, 1.0e6));
  EXPECT_EQ(ctrl.system_label, "CTRL@8");
  const double wdb =
      run_system(model_, lambda, core::SelectionAlgorithm::kDistanceBandwidth, 2)
          .admission_probability;
  const double gdi =
      run_system(model_, lambda, core::SelectionAlgorithm::kEvenDistribution, 2, true)
          .admission_probability;
  EXPECT_GE(ctrl.admission_probability, wdb - 0.01);
  EXPECT_LE(ctrl.admission_probability, gdi + 0.01);
  // The bottleneck cost is visible: every request pays agency round trips.
  EXPECT_GT(ctrl.average_messages, 0.0);
  EXPECT_GE(ctrl.average_decision_delay_s, 0.0);
}

TEST_F(PaperProperties, SlowCentralAgencyAccumulatesDecisionDelay) {
  // The scalability argument quantified: at 10 decisions/s a lambda=20
  // request stream drowns the agency — admission still works (decisions are
  // just late) but the decision latency explodes relative to a fast agency.
  SimulationConfig config = model_.base_config(20.0);
  config.policy = centralized_policy(8, 10.0);  // half the offered request rate
  config.warmup_s = 500.0;
  config.measure_s = 2'000.0;
  Simulation slow(model_.topology, config);
  const SimulationResult slow_result = slow.run();
  EXPECT_GT(slow_result.average_decision_delay_s, 10.0);  // unbounded queue growth

  config.policy = centralized_policy(8, 1.0e6);
  Simulation fast(model_.topology, config);
  const SimulationResult fast_result = fast.run();
  EXPECT_LT(fast_result.average_decision_delay_s, 1e-3);
}

TEST_F(PaperProperties, WdbPaysProbesForItsFewRetries) {
  // The compatibility trade-off the paper highlights: WD/D+B retries least
  // but generates probe traffic the others do not.
  const SimulationResult wdb =
      run_system(model_, 35.0, core::SelectionAlgorithm::kDistanceBandwidth, 2);
  const SimulationResult wdh =
      run_system(model_, 35.0, core::SelectionAlgorithm::kDistanceHistory, 2);
  EXPECT_GT(wdb.messages.by_kind(signaling::MessageKind::kProbe), 0u);
  EXPECT_EQ(wdh.messages.by_kind(signaling::MessageKind::kProbe), 0u);
  EXPECT_GT(wdb.average_messages, wdh.average_messages);
}

}  // namespace
}  // namespace anyqos::sim
