// Route-bandwidth probing — the "extended RSVP" the paper says WD/D+B needs.
//
// Section 4.3.2: "To obtain this kind of information, we have to extend some
// of current signaling protocols... let RESV message carry this kind of
// information back to AC-routers." We model it as an explicit PROBE /
// PROBE_REPLY exchange per route so its cost shows up in the overhead
// accounting — this is exactly the compatibility cost the paper warns about.
#pragma once

#include "src/net/bandwidth.h"
#include "src/signaling/message.h"

namespace anyqos::signaling {

/// Returns the bottleneck available bandwidth of routes, charging signaling
/// messages for each query.
class ProbeService {
 public:
  /// Both references must outlive the service.
  ProbeService(const net::BandwidthLedger& ledger, MessageCounter& counter);

  /// Bottleneck available bandwidth of `route` (B_i, eq. (11)).
  /// Charges one PROBE per link downstream and one PROBE_REPLY per link back.
  [[nodiscard]] net::Bandwidth route_bandwidth(const net::Path& route);

  /// The same bottleneck, read from the ledger without sending anything:
  /// the view an observer (span snapshot, timeline gauge, auditor) takes,
  /// which must not move the run's signaling tallies.
  [[nodiscard]] net::Bandwidth peek_bandwidth(const net::Path& route) const;

 private:
  const net::BandwidthLedger* ledger_;
  MessageCounter* counter_;
};

}  // namespace anyqos::signaling
