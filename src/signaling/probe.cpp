#include "src/signaling/probe.h"

namespace anyqos::signaling {

ProbeService::ProbeService(const net::BandwidthLedger& ledger, MessageCounter& counter)
    : ledger_(&ledger), counter_(&counter) {}

net::Bandwidth ProbeService::route_bandwidth(const net::Path& route) {
  counter_->count(MessageKind::kProbe, route.hops());
  counter_->count(MessageKind::kProbeReply, route.hops());
  return peek_bandwidth(route);
}

net::Bandwidth ProbeService::peek_bandwidth(const net::Path& route) const {
  return ledger_->bottleneck(route);
}

}  // namespace anyqos::signaling
