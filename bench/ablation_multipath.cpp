// Ablation A7: multiple fixed paths per member (future-work extension).
//
// GDI owes part of its Figure-6 lead to free path choice, not to global
// knowledge. Giving the DAC procedure k precomputed loopless paths per
// member (net::MultiPathRouteTable) isolates that factor: k = 1 is the
// paper's fixed-route world, larger k closes the path-diversity share of
// the GDI gap while staying a local, fixed-route procedure.
#include "bench/bench_common.h"

int main(int argc, char** argv) {
  using namespace anyqos;
  util::CliFlags flags("ablation_multipath",
                       "k fixed paths per member: closing the GDI path-diversity gap");
  bench::add_run_flags(flags);
  flags.parse(argc, argv);
  if (flags.help_requested()) {
    std::cout << flags.help_text();
    return 0;
  }
  const sim::ExperimentModel model = sim::paper_model();
  const sim::RunControls controls = bench::run_controls(flags);
  const std::vector<double> lambdas = bench::lambda_grid(flags);

  util::TablePrinter table({"lambda", "k=1 R=2", "k=2 R=3", "k=3 R=4", "GDI"});
  for (const double lambda : lambdas) {
    const auto ap = [&](const std::function<void(sim::SimulationConfig&)>& configure) {
      return util::format_fixed(
          bench::run_system(model, lambda, controls, configure).admission_probability, 6);
    };
    std::vector<std::string> row = {util::format_fixed(lambda, 1)};
    for (const std::size_t k : {1, 2, 3}) {  // R = k + 1
      row.push_back(
          ap([k](sim::SimulationConfig& c) { c.policy = sim::multipath_policy(k, k + 1); }));
    }
    row.push_back(ap([](sim::SimulationConfig& c) { c.use_gdi = true; }));
    table.add_row(std::move(row));
    std::cerr << "  lambda " << lambda << " done\n";
  }
  std::cout << (flags.get_bool("csv") ? table.to_csv() : table.to_text());
  std::cout << "\n(Ablation A7: inverse-hops weighting over (member, path) pairs; more\n"
            << "alternatives per member approach GDI's AP without global state.)\n";
  return 0;
}
