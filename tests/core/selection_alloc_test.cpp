// Heap allocations on the selection path, counted.
//
// This binary replaces the global operator new with a counting one, which is
// why it does not share a binary with core_test. The count is exact and
// deterministic, so the assertions need no noise band:
//  - a warm selector of every algorithm allocates nothing in select() and
//    report();
//  - a warm AdmissionController allocates nothing: an admission points at
//    its route in the table, and rejections and releases allocate nothing;
//  - a warm bare Simulation allocates once per scheduled event (the event
//    queue's node) and once per admitted flow (the flow table's node), and
//    nothing else per request;
//  - the chaos oracle's planes (spans in a flight recorder's ring, the
//    flight flow notes, the invariant auditor) allocate nothing per request
//    once warm, and a warm auditor checkpoint allocates nothing.
#include <gtest/gtest.h>

#include <cstdlib>
#include <memory>
#include <new>
#include <span>
#include <sstream>
#include <vector>

#include "src/audit/auditor.h"
#include "src/core/admission.h"
#include "src/net/topologies.h"
#include "src/obs/flight_recorder.h"
#include "src/obs/span.h"
#include "src/sim/experiment.h"
#include "src/sim/simulation.h"

namespace {

std::size_t allocations = 0;

void* counted_malloc(std::size_t size) noexcept {
  ++allocations;
  return std::malloc(size == 0 ? 1 : size);
}

void* counted_new(std::size_t size) {
  if (void* block = counted_malloc(size)) {
    return block;
  }
  throw std::bad_alloc();
}

}  // namespace

// Every unaligned form is replaced, so each block is malloc'd and freed here
// (a sanitizer's own operator new would otherwise pair with our free()).
void* operator new(std::size_t size) { return counted_new(size); }
void* operator new[](std::size_t size) { return counted_new(size); }
void* operator new(std::size_t size, const std::nothrow_t& /*tag*/) noexcept {
  return counted_malloc(size);
}
void* operator new[](std::size_t size, const std::nothrow_t& /*tag*/) noexcept {
  return counted_malloc(size);
}
void operator delete(void* block) noexcept { std::free(block); }
void operator delete[](void* block) noexcept { std::free(block); }
void operator delete(void* block, std::size_t /*size*/) noexcept { std::free(block); }
void operator delete[](void* block, std::size_t /*size*/) noexcept { std::free(block); }
void operator delete(void* block, const std::nothrow_t& /*tag*/) noexcept { std::free(block); }
void operator delete[](void* block, const std::nothrow_t& /*tag*/) noexcept { std::free(block); }

namespace anyqos::core {
namespace {

constexpr SelectionAlgorithm kAlgorithms[] = {
    SelectionAlgorithm::kEvenDistribution, SelectionAlgorithm::kDistanceHistory,
    SelectionAlgorithm::kDistanceBandwidth, SelectionAlgorithm::kShortestPath};

// MCI backbone with 10 Mbit/s links and eight members; the source is not a
// member, so every route has at least one hop.
struct Network {
  net::Topology topo = net::topologies::mci_backbone(10.0e6);
  std::vector<net::NodeId> members{2, 4, 6, 8, 10, 12, 14, 16};
  AnycastGroup group{"g", members};
  net::RouteTable routes{topo, members};
  net::BandwidthLedger ledger{topo, 1.0};
  signaling::MessageCounter counter;
  signaling::ReservationProtocol rsvp{ledger, counter};
  signaling::ProbeService probe{ledger, counter};

  SelectorEnvironment env() {
    SelectorEnvironment e;
    e.source = 0;
    e.group = &group;
    e.routes = &routes;
    e.probe = &probe;
    e.alpha = 0.5;
    e.wdb_mask_infeasible = true;
    e.flow_bandwidth = 1.0e6;
    return e;
  }
};

// select() + report() `steps` times with random tried masks and outcomes.
void drive(DestinationSelector& selector, std::size_t steps, des::RandomStream& rng,
           des::RandomStream& driver, std::span<bool> tried) {
  for (std::size_t step = 0; step < steps; ++step) {
    for (bool& t : tried) {
      t = driver.bernoulli(0.3);
    }
    const std::optional<std::size_t> index = selector.select(tried, rng);
    if (index.has_value()) {
      selector.report(*index, driver.bernoulli(0.5));
    }
  }
}

TEST(SelectionAllocations, WarmSelectorsAllocateNothing) {
  for (const SelectionAlgorithm algorithm : kAlgorithms) {
    Network net;
    const std::unique_ptr<DestinationSelector> selector = make_selector(algorithm, net.env());
    des::RandomStream rng(7);
    des::RandomStream driver(11);
    const std::unique_ptr<bool[]> tried(new bool[net.members.size()]);
    const std::span<bool> tried_view(tried.get(), net.members.size());
    drive(*selector, 100, rng, driver, tried_view);  // warm-up

    const std::size_t before = allocations;
    drive(*selector, 10'000, rng, driver, tried_view);
    EXPECT_EQ(allocations - before, 0u) << to_string(algorithm);
  }
}

TEST(SelectionAllocations, WarmAdmissionAllocatesNothing) {
  constexpr std::size_t kHeld = 40;  // enough 1 Mbit/s flows to block routes
  constexpr net::Bandwidth kBandwidth = 1.0e6;
  for (const SelectionAlgorithm algorithm : kAlgorithms) {
    Network net;
    AdmissionController controller(0, net.group, net.routes, net.rsvp,
                                   make_selector(algorithm, net.env()),
                                   std::make_unique<CounterRetrialPolicy>(2));
    FlowRequest request;
    request.source = 0;
    request.bandwidth_bps = kBandwidth;
    des::RandomStream rng(3);
    // A ring of held flows: each admission releases the flow admitted kHeld
    // requests earlier, so the ledger fills up and requests are also rejected.
    std::vector<AdmissionDecision> held(kHeld);
    const auto offer = [&](std::size_t n) {
      AdmissionDecision& slot = held[n % kHeld];
      if (slot.admitted) {
        controller.release(slot, kBandwidth);
      }
      slot = controller.admit(request, rng);
    };
    for (std::size_t n = 0; n < 2 * kHeld; ++n) {
      offer(n);  // warm-up
    }

    std::size_t admitted = 0;
    std::size_t rejected = 0;
    const std::size_t before = allocations;
    for (std::size_t n = 2 * kHeld; n < 2 * kHeld + 5'000; ++n) {
      offer(n);
      if (held[n % kHeld].admitted) {
        ++admitted;
      } else {
        ++rejected;
      }
    }
    EXPECT_EQ(allocations - before, 0u) << to_string(algorithm);
    EXPECT_GT(admitted, 0u) << to_string(algorithm);
    EXPECT_GT(rejected, 0u) << to_string(algorithm);
  }
}

// One fault-free, loss-free paper-model run of `measure_s` simulated
// seconds: its heap allocations, counted around run(), next to the work
// that allocates by design. With `planes` the run carries what the chaos
// oracle attaches: a tracer writing into a flight recorder's ring, the
// recorder's flow notes, and a throwing auditor. The auditor's periodic
// checkpoint is left off: each one is a kernel event, and the kernel
// allocates per event whoever schedules it.
struct RunCounts {
  std::size_t allocations = 0;
  std::size_t scheduled_events = 0;  ///< dispatched plus still pending
  std::size_t admitted_flows = 0;
  std::size_t measured_requests = 0;
};

RunCounts run_counts(SelectionAlgorithm algorithm, double measure_s, bool planes) {
  const sim::ExperimentModel model = sim::paper_model();
  sim::SimulationConfig config = model.base_config(25.0);
  config.algorithm = algorithm;
  config.max_tries = 2;
  config.warmup_s = 0.0;
  config.measure_s = measure_s;
  config.seed = 5;
  obs::DecisionTracer tracer;
  obs::FlightRecorder recorder;
  std::ostringstream dumps;
  if (planes) {
    recorder.set_output(&dumps);
    tracer.set_sink(&recorder.span_sink());
    config.tracer = &tracer;
    config.flight_recorder = &recorder;
  }
  sim::Simulation simulation(model.topology, config);
  audit::AuditorOptions options;
  options.checkpoint_interval_s = 0.0;
  audit::InvariantAuditor auditor(options);  // detaches before the simulation goes
  if (planes) {
    auditor.attach(simulation);
  }
  const std::size_t before = allocations;
  const sim::SimulationResult result = simulation.run();
  RunCounts counts;
  counts.allocations = allocations - before;
  counts.scheduled_events =
      simulation.simulator().dispatched_events() + simulation.simulator().pending_events();
  counts.admitted_flows = result.admitted;
  counts.measured_requests = result.offered;
  EXPECT_GT(result.offered, 0u);
  if (planes) {
    EXPECT_EQ(recorder.triggers(), 0u);  // fault-free: nothing dumps
    EXPECT_GT(tracer.spans_emitted(), 0u);
  }
  return counts;
}

// Allocations a std::vector makes while push_back grows it to `size`.
std::size_t vector_growth(std::size_t size) {
  const std::size_t before = allocations;
  std::vector<double> probe;
  for (std::size_t i = 0; i < size; ++i) {
    probe.push_back(0.0);
  }
  return allocations - before;
}

TEST(SelectionAllocations, BareRunAllocatesOnlyEventAndFlowNodes) {
  // The event queue allocates one node per scheduled event and the flow
  // table one per admitted flow. The one other allocation that grows with
  // the run is the batch-means CI's sample vector, which keeps every
  // measured decision: doubling the run adds one capacity doubling, counted
  // here. No hash table's bucket array grows between the two lengths:
  // the queue's and the flow table's peaks (3.1k-3.4k) need the same bucket
  // count at both. Beyond those, a bare run's allocations must not grow with
  // its length.
  constexpr double kSeconds = 1'000.0;
  const auto per_run = [](const RunCounts& run) {
    return run.allocations - run.scheduled_events - run.admitted_flows -
           vector_growth(run.measured_requests);
  };
  for (const SelectionAlgorithm algorithm : kAlgorithms) {
    const RunCounts once = run_counts(algorithm, kSeconds, false);
    const RunCounts twice = run_counts(algorithm, 2 * kSeconds, false);
    EXPECT_EQ(per_run(twice), per_run(once)) << to_string(algorithm);
  }
}

TEST(SelectionAllocations, WarmOraclePlanesAllocateNothingPerRequest) {
  // 1,000 s carry ~25,000 requests past the warm-up of every ring slot,
  // reservation key and reusable buffer; doubling the run then doubles the
  // requests but must not change what the planes add.
  constexpr double kSeconds = 1'000.0;
  for (const SelectionAlgorithm algorithm : kAlgorithms) {
    const std::size_t planes_once = run_counts(algorithm, kSeconds, true).allocations -
                                    run_counts(algorithm, kSeconds, false).allocations;
    const std::size_t planes_twice = run_counts(algorithm, 2 * kSeconds, true).allocations -
                                     run_counts(algorithm, 2 * kSeconds, false).allocations;
    EXPECT_EQ(planes_twice, planes_once) << to_string(algorithm);
  }
}

TEST(SelectionAllocations, WarmAuditorCheckpointAllocatesNothing) {
  const sim::ExperimentModel model = sim::paper_model();
  sim::SimulationConfig config = model.base_config(25.0);
  config.algorithm = SelectionAlgorithm::kDistanceBandwidth;
  config.warmup_s = 0.0;
  config.measure_s = 500.0;
  sim::Simulation simulation(model.topology, config);
  audit::AuditorOptions options;
  options.checkpoint_interval_s = 0.0;
  audit::InvariantAuditor auditor(options);
  auditor.attach(simulation);
  (void)simulation.run();
  EXPECT_EQ(auditor.checkpoint(500.0), 0u);  // warm-up: sizes the buffers
  const std::size_t before = allocations;
  EXPECT_EQ(auditor.checkpoint(500.0), 0u);
  EXPECT_EQ(allocations - before, 0u);
}

}  // namespace
}  // namespace anyqos::core
