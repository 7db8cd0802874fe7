// Heap allocations on the selection path, counted.
//
// This binary replaces the global operator new with a counting one, which is
// why it does not share a binary with core_test. The count is exact and
// deterministic, so the assertions need no noise band:
//  - a warm selector of every algorithm allocates nothing in select() and
//    report();
//  - a warm AdmissionController allocates exactly once per admission over a
//    non-empty route, and nothing for a rejection or a release.
#include <gtest/gtest.h>

#include <cstdlib>
#include <memory>
#include <new>
#include <span>
#include <vector>

#include "src/core/admission.h"
#include "src/net/topologies.h"

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

TEST(SelectionAllocations, WarmAdmissionAllocatesOnlyTheRouteCopy) {
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
      const AdmissionDecision& decision = held[n % kHeld];
      if (decision.admitted && !decision.route.links.empty()) {
        ++admitted;
      } else if (!decision.admitted) {
        ++rejected;
      }
    }
    const std::size_t counted = allocations - before;
    // The one allocation per admission is admit()'s copy of the fixed route
    // into AdmissionDecision::route; nothing else on the path allocates.
    EXPECT_EQ(counted, admitted) << to_string(algorithm);
    EXPECT_GT(admitted, 0u) << to_string(algorithm);
    EXPECT_GT(rejected, 0u) << to_string(algorithm);
  }
}

}  // namespace
}  // namespace anyqos::core
