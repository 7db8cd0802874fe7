// Engine microbenchmarks (google-benchmark): the per-operation costs behind
// the simulation — event queue churn, RNG draws, routing, reservation walks,
// selector decisions, and whole-admission latency. These quantify the
// "runtime overhead" axis the paper discusses qualitatively: WD/D+B's probe
// cost shows up directly in the admission benchmarks.
#include <benchmark/benchmark.h>

#include <vector>

#include "src/analysis/ap_analysis.h"
#include "src/core/admission.h"
#include "src/core/retrial.h"
#include "src/des/simulator.h"
#include "src/net/topologies.h"
#include "src/obs/kernel_stats.h"
#include "src/sim/experiment.h"

namespace {

using namespace anyqos;

void BM_EventQueueScheduleAndPop(benchmark::State& state) {
  des::EventQueue queue;
  des::RandomStream rng(1);
  // Keep a standing population of events; each iteration pops one, pushes one.
  for (int i = 0; i < 1024; ++i) {
    queue.schedule(rng.uniform01(), [] {});
  }
  double t = 1.0;
  for (auto _ : state) {
    auto fired = queue.pop();
    benchmark::DoNotOptimize(fired.time);
    queue.schedule(t, [] {});
    t += 1e-6;
  }
}
BENCHMARK(BM_EventQueueScheduleAndPop);

void BM_EventQueueCancelHeavy(benchmark::State& state) {
  // Tombstone churn: every iteration schedules two events, cancels one, and
  // pops one — half of all heap entries become lazy-cancel garbage the pop
  // path must walk over. Prices the cancellation scheme the soft-state
  // refresh and orphan timers lean on.
  des::EventQueue queue;
  des::RandomStream rng(7);
  std::vector<des::EventHandle> victims;
  for (int i = 0; i < 1024; ++i) {
    queue.schedule(rng.uniform01(), [] {});
    victims.push_back(queue.schedule(rng.uniform01(), [] {}));
  }
  double t = 1.0;
  std::size_t next_victim = 0;
  for (auto _ : state) {
    auto fired = queue.pop();
    benchmark::DoNotOptimize(fired.time);
    queue.cancel(victims[next_victim]);
    queue.schedule(t, [] {});
    victims[next_victim] = queue.schedule(t, [] {});
    next_victim = (next_victim + 1) % victims.size();
    t += 1e-6;
  }
}
BENCHMARK(BM_EventQueueCancelHeavy);

void BM_EventQueueSameTimestampBurst(benchmark::State& state) {
  // FIFO tie-break cost: drain a burst of events scheduled at one identical
  // timestamp (the shape fault handlers and reconvergence sweeps produce).
  const int burst = static_cast<int>(state.range(0));
  for (auto _ : state) {
    state.PauseTiming();
    des::EventQueue queue;
    for (int i = 0; i < burst; ++i) {
      queue.schedule(1.0, [] {});
    }
    state.ResumeTiming();
    while (!queue.empty()) {
      auto fired = queue.pop();
      benchmark::DoNotOptimize(fired.id);
    }
  }
  state.SetItemsProcessed(state.iterations() * burst);
}
BENCHMARK(BM_EventQueueSameTimestampBurst)->Arg(16)->Arg(256);

void BM_SimulatorEventChain(benchmark::State& state) {
  for (auto _ : state) {
    des::Simulator sim;
    int remaining = 1000;
    std::function<void()> hop = [&] {
      if (--remaining > 0) {
        sim.schedule_in(1.0, hop);
      }
    };
    sim.schedule_in(1.0, hop);
    benchmark::DoNotOptimize(sim.run());
  }
  state.SetItemsProcessed(state.iterations() * 1000);
}
BENCHMARK(BM_SimulatorEventChain);

void BM_SimulatorEventChainAttached(benchmark::State& state) {
  // The same chain with the kernel telemetry sink attached — a worst case:
  // the events do nothing, so this ratio is the sink's cost against a bare
  // dispatch. The CI overhead budget is held on the realistic pair
  // (BM_SimulatedSecondKernelStats vs BM_SimulatedSecond); this one exists
  // to see sink-cost drift early, before the model hides it.
  for (auto _ : state) {
    des::Simulator sim;
    obs::KernelStats stats;
    stats.attach(sim);
    const des::EventCategory cat = sim.category("bench.chain");
    int remaining = 1000;
    std::function<void()> hop = [&] {
      if (--remaining > 0) {
        sim.schedule_in(1.0, cat, hop);
      }
    };
    sim.schedule_in(1.0, cat, hop);
    benchmark::DoNotOptimize(sim.run());
  }
  state.SetItemsProcessed(state.iterations() * 1000);
}
BENCHMARK(BM_SimulatorEventChainAttached);

void BM_RandomExponential(benchmark::State& state) {
  des::RandomStream rng(2);
  for (auto _ : state) {
    benchmark::DoNotOptimize(rng.exponential(180.0));
  }
}
BENCHMARK(BM_RandomExponential);

void BM_WeightedIndexK5(benchmark::State& state) {
  des::RandomStream rng(3);
  const std::vector<double> weights = {0.4, 0.25, 0.15, 0.12, 0.08};
  for (auto _ : state) {
    benchmark::DoNotOptimize(rng.weighted_index(weights));
  }
}
BENCHMARK(BM_WeightedIndexK5);

void BM_ShortestPathMci(benchmark::State& state) {
  const net::Topology topo = net::topologies::mci_backbone();
  net::NodeId s = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(net::shortest_path(topo, s, 16));
    s = (s + 1) % 19;
  }
}
BENCHMARK(BM_ShortestPathMci);

void BM_RouteTableConstructionMci(benchmark::State& state) {
  const net::Topology topo = net::topologies::mci_backbone();
  for (auto _ : state) {
    net::RouteTable table(topo, {0, 4, 8, 12, 16});
    benchmark::DoNotOptimize(table.destination_count());
  }
}
BENCHMARK(BM_RouteTableConstructionMci);

void BM_ReserveReleaseCycle(benchmark::State& state) {
  const net::Topology topo = net::topologies::mci_backbone();
  net::BandwidthLedger ledger(topo, 0.2);
  const net::RouteTable table(topo, {16});
  const net::Path& route = table.route(1, 0);
  signaling::MessageCounter counter;
  signaling::ReservationProtocol rsvp(ledger, counter);
  for (auto _ : state) {
    auto result = rsvp.reserve(route, 64'000.0);
    benchmark::DoNotOptimize(result.admitted);
    rsvp.teardown(route, 64'000.0);
  }
}
BENCHMARK(BM_ReserveReleaseCycle);

void admission_bench(benchmark::State& state, core::SelectionAlgorithm algorithm) {
  const net::Topology topo = net::topologies::mci_backbone();
  net::BandwidthLedger ledger(topo, 0.2);
  const core::AnycastGroup group("g", {0, 4, 8, 12, 16});
  const net::RouteTable routes(topo, group.members());
  signaling::MessageCounter counter;
  signaling::ReservationProtocol rsvp(ledger, counter);
  signaling::ProbeService probe(ledger, counter);
  core::SelectorEnvironment env;
  env.source = 9;
  env.group = &group;
  env.routes = &routes;
  env.probe = &probe;
  env.flow_bandwidth = 64'000.0;
  core::AdmissionController ac(9, group, routes, rsvp, core::make_selector(algorithm, env),
                               std::make_unique<core::CounterRetrialPolicy>(2));
  des::RandomStream rng(5);
  core::FlowRequest request;
  request.source = 9;
  request.bandwidth_bps = 64'000.0;
  for (auto _ : state) {
    const auto decision = ac.admit(request, rng);
    benchmark::DoNotOptimize(decision.admitted);
    if (decision.admitted) {
      ac.release(decision, request.bandwidth_bps);
    }
  }
}

void BM_AdmissionEd(benchmark::State& state) {
  admission_bench(state, core::SelectionAlgorithm::kEvenDistribution);
}
BENCHMARK(BM_AdmissionEd);

void BM_AdmissionWdh(benchmark::State& state) {
  admission_bench(state, core::SelectionAlgorithm::kDistanceHistory);
}
BENCHMARK(BM_AdmissionWdh);

void BM_AdmissionWdb(benchmark::State& state) {
  // Expect this one visibly slower: every selection probes all five routes.
  admission_bench(state, core::SelectionAlgorithm::kDistanceBandwidth);
}
BENCHMARK(BM_AdmissionWdb);

void BM_GdiOracleAdmission(benchmark::State& state) {
  const net::Topology topo = net::topologies::mci_backbone();
  net::BandwidthLedger ledger(topo, 0.2);
  const core::AnycastGroup group("g", {0, 4, 8, 12, 16});
  core::GlobalAdmissionOracle oracle(topo, ledger, group);
  des::RandomStream rng(1);  // the oracle draws nothing
  core::FlowRequest request;
  request.source = 9;
  request.bandwidth_bps = 64'000.0;
  for (auto _ : state) {
    const auto decision = oracle.admit(0.0, request, rng);
    benchmark::DoNotOptimize(decision.admitted);
    if (decision.admitted) {
      oracle.release(*decision.route, decision.reserved_bps);
    }
  }
}
BENCHMARK(BM_GdiOracleAdmission);

void BM_FixedPointEd1(benchmark::State& state) {
  const sim::ExperimentModel model = sim::paper_model();
  analysis::AnalyticModel analytic;
  analytic.topology = &model.topology;
  analytic.sources = model.sources;
  analytic.members = model.group_members;
  analytic.lambda_total = 35.0;
  for (auto _ : state) {
    const auto result = analysis::analyze_ed1(analytic, analysis::FixedPointOptions{});
    benchmark::DoNotOptimize(result.admission_probability);
  }
}
BENCHMARK(BM_FixedPointEd1);

void BM_SimulatedSecond(benchmark::State& state) {
  // Cost of one simulated second of the full paper model at lambda = 35.
  const sim::ExperimentModel model = sim::paper_model();
  for (auto _ : state) {
    sim::SimulationConfig config = model.base_config(35.0);
    config.algorithm = core::SelectionAlgorithm::kDistanceHistory;
    config.warmup_s = 0.0;
    config.measure_s = 50.0;
    config.seed = 11;
    sim::Simulation simulation(model.topology, config);
    benchmark::DoNotOptimize(simulation.run().offered);
  }
  state.SetItemsProcessed(state.iterations() * 50);
}
BENCHMARK(BM_SimulatedSecond)->Unit(benchmark::kMillisecond);

void BM_SimulatedSecondKernelStats(benchmark::State& state) {
  // The same simulated second with kernel telemetry attached — the
  // realistic overhead measurement, where real event work amortizes the
  // sink's counter bumps. compare-bench.py --attached-overhead holds the
  // ratio of this to BM_SimulatedSecond at <= 5% in CI.
  const sim::ExperimentModel model = sim::paper_model();
  for (auto _ : state) {
    sim::SimulationConfig config = model.base_config(35.0);
    config.algorithm = core::SelectionAlgorithm::kDistanceHistory;
    config.warmup_s = 0.0;
    config.measure_s = 50.0;
    config.seed = 11;
    obs::KernelStats stats;
    config.kernel_stats = &stats;
    sim::Simulation simulation(model.topology, config);
    benchmark::DoNotOptimize(simulation.run().offered);
  }
  state.SetItemsProcessed(state.iterations() * 50);
}
BENCHMARK(BM_SimulatedSecondKernelStats)->Unit(benchmark::kMillisecond);

}  // namespace

BENCHMARK_MAIN();
