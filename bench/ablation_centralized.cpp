// Ablation A5: the centralized-admission alternative the paper argues
// against (Section 1). CTRL has a global view over the fixed routes, so its
// AP upper-bounds every DAC system while staying below GDI (no free path
// choice) — but each request pays a round trip to the agency and queues at
// its finite decision rate. This bench puts numbers on that argument.
#include "bench/bench_common.h"

int main(int argc, char** argv) {
  using namespace anyqos;
  util::CliFlags flags("ablation_centralized",
                       "centralized agency vs DAC vs GDI (AP and overheads)");
  bench::add_run_flags(flags);
  flags.add_unsigned("controller-node", 8, "router hosting the agency (8 = central CHI)");
  flags.add_double("controller-rate", 1e6, "agency decisions per second");
  flags.parse(argc, argv);
  if (flags.help_requested()) {
    std::cout << flags.help_text();
    return 0;
  }
  const auto node = static_cast<net::NodeId>(flags.get_unsigned("controller-node"));
  const double rate = flags.get_double("controller-rate");

  const sim::ExperimentModel model = sim::paper_model();
  const sim::RunControls controls = bench::run_controls(flags);
  const std::vector<double> lambdas = bench::lambda_grid(flags);

  util::TablePrinter table({"lambda", "AP <WD/D+B,2>", "AP CTRL", "AP GDI",
                            "msgs/req WD/D+B", "msgs/req CTRL"});
  for (const double lambda : lambdas) {
    const sim::SimulationResult wdb =
        bench::run_system(model, lambda, controls, [](sim::SimulationConfig& config) {
          config.algorithm = core::SelectionAlgorithm::kDistanceBandwidth;
          config.max_tries = 2;
        });
    const sim::SimulationResult ctrl =
        bench::run_system(model, lambda, controls, [&](sim::SimulationConfig& config) {
          config.policy = sim::centralized_policy(node, rate);
        });
    const sim::SimulationResult gdi = bench::run_system(
        model, lambda, controls, [](sim::SimulationConfig& config) { config.use_gdi = true; });
    table.add_numeric_row({lambda, wdb.admission_probability, ctrl.admission_probability,
                           gdi.admission_probability, wdb.average_messages,
                           ctrl.average_messages},
                          4);
    std::cerr << "  lambda " << lambda << " done\n";
  }
  std::cout << (flags.get_bool("csv") ? table.to_csv() : table.to_text());
  std::cout << "\n(Ablation A5: centralized agency at router " << node
            << ". Expected ordering WD/D+B <= CTRL <= GDI in AP; CTRL's message\n"
            << "column shows the control round trips the paper's scalability\n"
            << "argument is about.)\n";
  return 0;
}
