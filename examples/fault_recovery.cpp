// Fault recovery time series: what an outage looks like to an anycast
// service, minute by minute.
//
// Runs the paper model with one scheduled backbone outage, attaches an
// obs::Timeline through SimulationConfig::timeline, and prints an ASCII
// strip chart of its active_flows column and the mean of its per-link
// util: columns around the failure/repair — the view an operator's
// dashboard would show. The Timeline samples at the end of each window, so
// the chart's first point is at t = one sampling period, not t = 0.
//
//   $ ./fault_recovery --fail-at=3000 --repair-at=4500
#include <iostream>
#include <string>
#include <vector>

#include "src/obs/timeline.h"
#include "src/sim/experiment.h"
#include "src/sim/faults.h"
#include "src/util/cli.h"
#include "src/util/strings.h"

namespace {

using namespace anyqos;

void strip_chart(const std::vector<obs::TimelineSample>& samples,
                 const std::vector<double>& values, double fail_at, double repair_at) {
  double peak = 1.0;
  for (const double v : values) {
    peak = std::max(peak, v);
  }
  constexpr int kWidth = 60;
  for (std::size_t i = 0; i < values.size(); ++i) {
    const int bar = static_cast<int>(values[i] / peak * kWidth);
    std::string line(static_cast<std::size_t>(bar), '#');
    const double t = samples[i].time;
    const char* marker = "";
    if (t >= fail_at && t < fail_at + 120.0) {
      marker = "  <- LINK DOWN";
    } else if (t >= repair_at && t < repair_at + 120.0) {
      marker = "  <- REPAIRED";
    }
    std::cout << util::format_fixed(t, 0) << "s\t" << line
              << " " << util::format_fixed(values[i], 0) << marker << "\n";
  }
}

}  // namespace

int main(int argc, char** argv) {
  util::CliFlags flags("fault_recovery", "Time series of an outage on the paper model");
  flags.add_double("lambda", 25.0, "arrival rate, requests/s");
  flags.add_double("fail-at", 3'000.0, "outage start, simulated seconds");
  flags.add_double("repair-at", 4'500.0, "outage end, simulated seconds");
  flags.add_double("horizon", 7'000.0, "total simulated seconds");
  flags.add_double("sample", 120.0, "sampling period, seconds");
  flags.parse(argc, argv);
  if (flags.help_requested()) {
    std::cout << flags.help_text();
    return 0;
  }
  const double fail_at = flags.get_double("fail-at");
  const double repair_at = flags.get_double("repair-at");

  const sim::ExperimentModel model = sim::paper_model();
  sim::SimulationConfig config = model.base_config(flags.get_double("lambda"));
  config.algorithm = core::SelectionAlgorithm::kDistanceHistory;
  config.max_tries = 2;
  config.warmup_s = 1'000.0;
  config.measure_s = flags.get_double("horizon") - config.warmup_s;
  config.seed = 5;
  // Kill the busiest central link (CHI-DCA in the MCI-like map).
  config.faults.push_back(sim::single_fault(8, 12, fail_at, repair_at));
  obs::TimelineOptions timeline_options;
  timeline_options.interval_s = flags.get_double("sample");
  obs::Timeline timeline(timeline_options);
  config.timeline = &timeline;

  sim::Simulation simulation(model.topology, config);
  const sim::SimulationResult result = simulation.run();

  std::vector<double> active_flows;
  std::vector<double> mean_utilization;  // percent, over every directed link
  for (const obs::TimelineSample& sample : timeline.samples()) {
    double utilization = 0.0;
    std::size_t links = 0;
    for (std::size_t column = 0; column < timeline.columns().size(); ++column) {
      const std::string& name = timeline.columns()[column].name;
      if (name == "active_flows") {
        active_flows.push_back(sample.values[column]);
      } else if (util::starts_with(name, "util:")) {
        utilization += sample.values[column];
        ++links;
      }
    }
    mean_utilization.push_back(100.0 * utilization / static_cast<double>(links));
  }

  std::cout << "Outage of link CHI-DCA from t=" << fail_at << "s to t=" << repair_at
            << "s under <WD/D+H,2> at lambda=" << flags.get_double("lambda") << "/s\n\n"
            << "Active flows over time:\n";
  strip_chart(timeline.samples(), active_flows, fail_at, repair_at);
  std::cout << "\nMean link utilization (%) over time:\n";
  strip_chart(timeline.samples(), mean_utilization, fail_at, repair_at);
  std::cout << "\nRun summary: AP " << util::format_fixed(result.admission_probability, 4)
            << ", dropped by the outage " << result.dropped << " flows, avg tries "
            << util::format_fixed(result.average_attempts, 3) << "\n"
            << "\nThe dip at the failure is flows dropped mid-life; the recovery is\n"
            << "retrial control steering new flows to members the outage left\n"
            << "reachable. Repairing restores the original operating point.\n";
  return 0;
}
