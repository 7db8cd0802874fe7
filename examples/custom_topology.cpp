// Custom topology + custom selection strategy: extending the library.
//
// Demonstrates the two extension points a downstream user needs most:
//   1. Building their own Topology (here: a two-datacenter dumbbell) instead
//      of the built-in generators.
//   2. Plugging a new DestinationSelector into the DAC procedure — here a
//      "sticky" selector that remembers the last member that worked and keeps
//      using it until it fails (a common load-balancer heuristic), compared
//      against the paper's algorithms on the same workload. A small
//      core::AdmissionPolicy wires it into per-source AdmissionControllers,
//      so sim::Simulation runs it like any built-in system.
//
//   $ ./custom_topology --lambda=60
#include <iostream>
#include <optional>

#include "src/sim/simulation.h"
#include "src/util/cli.h"
#include "src/util/strings.h"
#include "src/util/table.h"

namespace {

using namespace anyqos;

// Two 4-router sites joined by a thin long-haul pair. Members live in both
// sites; sources in site A must pick wisely or saturate the dumbbell waist.
net::Topology dumbbell() {
  net::Topology topo;
  for (int i = 0; i < 8; ++i) {
    std::string name(i < 4 ? "A" : "B");  // append form: GCC 12 -Wrestrict, PR 105329
    name += std::to_string(i < 4 ? i : i - 4);
    topo.add_router(name);
  }
  const double lan = 100.0e6;
  const double wan = 40.0e6;  // thin waist
  // Site A full mesh-ish.
  topo.add_duplex_link(0, 1, lan);
  topo.add_duplex_link(1, 2, lan);
  topo.add_duplex_link(2, 3, lan);
  topo.add_duplex_link(0, 3, lan);
  // Site B.
  topo.add_duplex_link(4, 5, lan);
  topo.add_duplex_link(5, 6, lan);
  topo.add_duplex_link(6, 7, lan);
  topo.add_duplex_link(4, 7, lan);
  // The waist.
  topo.add_duplex_link(2, 4, wan);
  topo.add_duplex_link(3, 5, wan);
  return topo;
}

/// Sticky selector: keep returning the member that last succeeded; on
/// failure (or at first use) fall back to uniform choice over untried.
class StickySelector final : public core::DestinationSelector {
 public:
  explicit StickySelector(std::size_t group_size) : group_size_(group_size) {}

  std::optional<std::size_t> select(std::span<const bool> tried,
                                    des::RandomStream& rng) override {
    if (sticky_.has_value() && !tried[*sticky_]) {
      return sticky_;
    }
    std::vector<double> weights(group_size_, 0.0);
    bool any = false;
    for (std::size_t i = 0; i < group_size_; ++i) {
      if (!tried[i]) {
        weights[i] = 1.0;
        any = true;
      }
    }
    if (!any) {
      return std::nullopt;
    }
    return rng.weighted_index(weights);
  }

  void report(std::size_t index, bool admitted) override {
    if (admitted) {
      sticky_ = index;
    } else if (sticky_ == index) {
      sticky_.reset();
    }
  }

  void fill_weights(std::vector<double>& out) const override {
    if (!sticky_.has_value()) {
      out.assign(group_size_, 1.0 / static_cast<double>(group_size_));
      return;
    }
    out.assign(group_size_, 0.0);
    out[*sticky_] = 1.0;
  }

  [[nodiscard]] std::string name() const override { return "STICKY"; }

 private:
  std::size_t group_size_;
  std::optional<std::size_t> sticky_;
};

/// DAC with the sticky selector at every AC-router (R = 2).
class StickyPolicy final : public core::AdmissionPolicy {
 public:
  explicit StickyPolicy(const sim::PolicyEnvironment& env)
      : env_(env), controllers_(env.topology.router_count()) {}

  [[nodiscard]] core::AdmissionDecision admit(double /*now*/, const core::FlowRequest& request,
                                              des::RandomStream& rng) override {
    auto& controller = controllers_[request.source];
    if (controller == nullptr) {
      controller = std::make_unique<core::AdmissionController>(
          request.source, env_.group, env_.routes, env_.rsvp,
          std::make_unique<StickySelector>(env_.group.size()),
          std::make_unique<core::CounterRetrialPolicy>(2));
    }
    return controller->admit(request, rng);
  }

  void release(const net::Path& route, net::Bandwidth bandwidth_bps) override {
    env_.rsvp.teardown(route, bandwidth_bps);
  }

  [[nodiscard]] std::string label() const override { return "STICKY"; }

 private:
  sim::PolicyEnvironment env_;
  std::vector<std::unique_ptr<core::AdmissionController>> controllers_;
};

/// Runs one system on the dumbbell: the sticky policy, or `algorithm`.
sim::SimulationResult run_custom(const net::Topology& topo, bool sticky,
                                 core::SelectionAlgorithm algorithm, double lambda) {
  sim::SimulationConfig config;
  config.traffic.arrival_rate = lambda;
  config.traffic.mean_holding_s = 60.0;
  config.traffic.flow_bandwidth_bps = 256'000.0;  // chunky media flows
  config.traffic.sources = {0, 2, 3};
  config.group_members = {1, 6};  // one member per site
  config.anycast_share = 0.5;
  config.algorithm = algorithm;
  config.max_tries = 2;
  config.warmup_s = 0.0;
  config.measure_s = 4'000.0;
  config.seed = 7;
  if (sticky) {
    config.policy = [](const sim::PolicyEnvironment& env) {
      return std::make_unique<StickyPolicy>(env);
    };
  }
  return sim::Simulation(topo, config).run();
}

}  // namespace

int main(int argc, char** argv) {
  util::CliFlags flags("custom_topology",
                       "Custom dumbbell topology with a user-defined selector");
  flags.add_double("lambda", 6.0, "requests per second");
  flags.parse(argc, argv);
  if (flags.help_requested()) {
    std::cout << flags.help_text();
    return 0;
  }
  const double lambda = flags.get_double("lambda");
  const net::Topology topo = dumbbell();

  std::cout << "Dumbbell: two 4-router sites, 40 Mbit/s waist, members in both sites,\n"
            << "256 kbit/s flows at " << lambda << "/s from site A\n\n";

  util::TablePrinter table({"selector", "admitted", "avg tries"});
  const auto add_row = [&table](const std::string& name, const sim::SimulationResult& result) {
    table.add_row({name, util::format_fixed(100.0 * result.admission_probability, 1) + "%",
                   util::format_fixed(result.attempts_histogram.mean(), 3)});
  };
  add_row("STICKY (custom plug-in)",
          run_custom(topo, true, core::SelectionAlgorithm::kEvenDistribution, lambda));
  for (const auto algorithm :
       {core::SelectionAlgorithm::kEvenDistribution, core::SelectionAlgorithm::kDistanceHistory,
        core::SelectionAlgorithm::kDistanceBandwidth}) {
    add_row(core::to_string(algorithm), run_custom(topo, false, algorithm, lambda));
  }
  table.print(std::cout);
  std::cout << "\nThe sticky heuristic piles flows onto one member until it chokes the\n"
            << "waist; the paper's randomized/weighted selectors spread them across\n"
            << "sites. Writing a selector = subclassing DestinationSelector (~30 lines).\n";
  return 0;
}
