// Shared plumbing for the figure/table benches: run-control flags, system
// sweep execution, and paper-style table printing.
//
// Every bench regenerates one table or figure of the paper on the Section 5.1
// experiment model. Absolute values depend on the MCI-like topology
// substitution (see DESIGN.md); the *shapes* are the reproduction target and
// are recorded against the paper in EXPERIMENTS.md.
#pragma once

#include <cstddef>
#include <functional>
#include <iostream>
#include <string>
#include <vector>

#include "src/sim/experiment.h"
#include "src/stats/accumulator.h"
#include "src/util/cli.h"
#include "src/util/require.h"
#include "src/util/strings.h"
#include "src/util/table.h"

namespace anyqos::bench {

/// Declares the flags every simulation bench shares.
inline void add_run_flags(util::CliFlags& flags) {
  flags.add_double("warmup", 2'000.0, "simulated seconds discarded as warm-up");
  flags.add_double("measure", 12'000.0, "simulated seconds measured");
  flags.add_unsigned("seed", 1, "master RNG seed (common random numbers)");
  flags.add_string("lambdas", "5,10,15,20,25,30,35,40,45,50",
                   "comma-separated arrival-rate grid");
  flags.add_bool("csv", false, "emit CSV instead of an aligned table");
  flags.add_unsigned("replications", 1,
                     "independent replications per point (mean reported; >1 "
                     "multiplies runtime)");
}

/// Parses --lambdas into a rate grid.
inline std::vector<double> lambda_grid(const util::CliFlags& flags) {
  std::vector<double> grid;
  for (const std::string& field : util::split(flags.get_string("lambdas"), ',')) {
    const auto value = util::parse_double(field);
    util::require(value.has_value() && *value > 0.0,
                  "--lambdas must be positive numbers, got '" + field + "'");
    grid.push_back(*value);
  }
  util::require(!grid.empty(), "--lambdas must not be empty");
  return grid;
}

inline sim::RunControls run_controls(const util::CliFlags& flags) {
  sim::RunControls controls;
  controls.warmup_s = flags.get_double("warmup");
  controls.measure_s = flags.get_double("measure");
  controls.seed = flags.get_unsigned("seed");
  return controls;
}

/// Runs the model at `lambda` under `controls`, after `configure` picks the
/// system.
inline sim::SimulationResult run_system(
    const sim::ExperimentModel& model, double lambda, const sim::RunControls& controls,
    const std::function<void(sim::SimulationConfig&)>& configure) {
  sim::SimulationConfig config = model.base_config(lambda);
  sim::apply_run_controls(config, controls);
  configure(config);
  return sim::Simulation(model.topology, config).run();
}

/// A column of a figure bench: one system configuration.
struct SystemColumn {
  std::string label;
  std::function<void(sim::SimulationConfig&)> configure;
};

/// Runs every system at every rate and prints a table whose rows are rates
/// and whose columns are systems, using `extract` to pull the plotted metric.
inline void run_figure(const util::CliFlags& flags, const std::string& metric_name,
                       const std::vector<SystemColumn>& systems,
                       const std::function<double(const sim::SimulationResult&)>& extract) {
  const sim::ExperimentModel model = sim::paper_model();
  const sim::RunControls controls = run_controls(flags);
  const std::vector<double> lambdas = lambda_grid(flags);

  std::vector<std::string> header = {"lambda"};
  for (const SystemColumn& system : systems) {
    header.push_back(system.label);
  }
  util::TablePrinter table(std::move(header));

  const std::size_t replications =
      static_cast<std::size_t>(flags.get_unsigned("replications"));
  util::require(replications >= 1, "--replications must be at least 1");
  for (const double lambda : lambdas) {
    std::vector<std::string> row = {util::format_fixed(lambda, 1)};
    for (const SystemColumn& system : systems) {
      stats::Accumulator across_seeds;
      for (std::size_t r = 0; r < replications; ++r) {
        sim::RunControls replica = controls;
        replica.seed += r;
        across_seeds.add(extract(run_system(model, lambda, replica, system.configure)));
      }
      row.push_back(util::format_fixed(across_seeds.mean(), 6));
    }
    table.add_row(std::move(row));
    std::cerr << "  lambda " << lambda << " done\n";
  }
  std::cout << (flags.get_bool("csv") ? table.to_csv() : table.to_text());
  std::cout << "\n(" << metric_name << "; model: Section 5.1 on the MCI-like backbone, "
            << "warmup " << controls.warmup_s << " s, measured " << controls.measure_s
            << " s, seed " << controls.seed << ")\n";
}

}  // namespace anyqos::bench
