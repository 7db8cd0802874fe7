// Quickstart: build a network, define an anycast group, and run the DAC
// procedure for a handful of flow requests by hand.
//
// This walks the public API at the lowest level — topology, ledger, routes,
// signaling, admission controller — the same pieces the simulator drives.
//
//   $ ./quickstart
#include <iostream>

#include "src/core/admission.h"
#include "src/core/retrial.h"
#include "src/net/topologies.h"

int main() {
  using namespace anyqos;

  // 1. The network: the paper's 19-router MCI-like backbone, 100 Mbit/s
  //    links with 20% set aside for anycast flows.
  const net::Topology topology = net::topologies::mci_backbone();
  net::BandwidthLedger ledger(topology, /*anycast_share=*/0.2);
  std::cout << "Network: " << topology.router_count() << " routers, "
            << topology.duplex_link_count() << " duplex links\n";

  // 2. The anycast group: five mirrored servers sharing one anycast address.
  const core::AnycastGroup group("anycast://mirrors", {0, 4, 8, 12, 16});

  // 3. Fixed routes from every router to every member (hop-count shortest
  //    paths, as the paper assumes the routing protocol provides).
  const net::RouteTable routes(topology, group.members());

  // 4. RSVP-like signaling against the ledger, with message accounting.
  signaling::MessageCounter messages;
  signaling::ReservationProtocol rsvp(ledger, messages);
  signaling::ProbeService probe(ledger, messages);

  // 5. An AC-router at node 9 running <WD/D+H, 2>: weighted destination
  //    selection by route distance + admission history, up to 2 tries.
  core::SelectorEnvironment env;
  env.source = 9;
  env.group = &group;
  env.routes = &routes;
  env.probe = &probe;
  env.alpha = 0.5;
  core::AdmissionController ac(
      9, group, routes, rsvp,
      core::make_selector(core::SelectionAlgorithm::kDistanceHistory, env),
      std::make_unique<core::CounterRetrialPolicy>(2));

  // 6. Offer a few 64 kbit/s flow requests and show the decisions.
  des::RandomStream rng(2026);
  std::cout << "\nAdmitting 5 anycast flows from router " << topology.router_name(9)
            << " to " << group.address() << ":\n";
  std::vector<core::AdmissionDecision> admitted;
  for (int i = 0; i < 5; ++i) {
    core::FlowRequest request;
    request.source = 9;
    request.bandwidth_bps = 64'000.0;
    const core::AdmissionDecision decision = ac.admit(request, rng);
    if (decision.admitted) {
      std::cout << "  flow " << i << ": ADMITTED -> member at router "
                << topology.router_name(group.member(*decision.destination_index)) << " ("
                << decision.route->hops() << " hops, " << decision.attempts << " attempt(s), "
                << decision.messages << " signaling msgs)\n";
      admitted.push_back(decision);
    } else {
      std::cout << "  flow " << i << ": REJECTED after " << decision.attempts
                << " attempts\n";
    }
  }

  std::cout << "\nReserved bandwidth in the network: " << ledger.total_reserved() / 1e6
            << " Mbit/s across links\n";

  // 7. Flows end: release their reservations (TEAR signaling).
  for (const auto& decision : admitted) {
    ac.release(decision, 64'000.0);
  }
  std::cout << "After teardown: " << ledger.total_reserved() << " bit/s reserved\n";
  std::cout << "Total signaling messages: " << messages.total() << "\n";
  return 0;
}
