// Flow-event tracing: an optional observer stream of everything that happens
// to flows during a run (ns-style trace file), for debugging, plotting
// time series, and validating burst behaviour beyond aggregate metrics.
#pragma once

#include <cstdint>
#include <iosfwd>
#include <string>
#include <string_view>
#include <vector>

#include "src/net/graph.h"

namespace anyqos::sim {

/// What happened to a flow request / active flow.
enum class TraceEventKind : std::uint8_t {
  kAdmitted,   // request admitted and reserved
  kRejected,   // request rejected after its retry budget
  kDeparted,   // flow completed normally and released
  kDropped,    // flow torn down by a link failure or member churn
  kLinkDown,   // a fault took a duplex link out
  kLinkUp,     // a fault repaired
  kMemberDown, // churn took a group member out of service
  kMemberUp,   // a churned member recovered
  kFailover,   // a displaced flow was re-admitted to another member
  kShed,       // request fast-rejected by the governor's signaling budget
  kNodeDown,   // a router crashed (all incident links + co-located members)
  kNodeUp,     // a crashed router recovered
  kReconverged,// the route table recomputed after a topology change
  kRepaired,   // a broken flow was re-signaled onto the new route
  kRepairFailed, // a broken flow could not be repaired and was dropped
};

/// The kind's static name ("ADMITTED", ...), as trace CSVs and flight
/// snapshots spell it.
std::string_view to_string(TraceEventKind kind);

/// One trace record. Fields not applicable to the kind are left at defaults
/// (e.g. destination for kLinkDown).
struct TraceEvent {
  double time = 0.0;
  TraceEventKind kind = TraceEventKind::kAdmitted;
  /// Request correlation id (the simulation's arrival sequence number; the
  /// same id keys the request's obs::DecisionSpan, so flow traces join
  /// against decision spans). 0 for link events.
  std::uint64_t flow = 0;
  net::NodeId source = net::kInvalidNode;       ///< request source / link endpoint a
  net::NodeId destination = net::kInvalidNode;  ///< member router / link endpoint b
  std::size_t attempts = 0;                     ///< destinations tried (admission events)
  double bandwidth_bps = 0.0;                   ///< requested bandwidth (0 for link events)
  std::size_t active_flows = 0;                 ///< population after the event
};

/// Receives trace events; implementations must tolerate high event rates.
class TraceSink {
 public:
  virtual ~TraceSink() = default;
  virtual void record(const TraceEvent& event) = 0;
};

/// Buffers every event in memory; the workhorse for tests and small runs.
class MemoryTraceSink final : public TraceSink {
 public:
  void record(const TraceEvent& event) override { events_.push_back(event); }

  [[nodiscard]] const std::vector<TraceEvent>& events() const { return events_; }
  [[nodiscard]] std::size_t count(TraceEventKind kind) const;
  void clear() { events_.clear(); }

 private:
  std::vector<TraceEvent> events_;
};

/// Streams events as CSV rows (`time,kind,flow,source,destination,attempts,
/// bandwidth_bps,active`) with a header, suitable for any plotting tool.
/// Times and bandwidths print as "%.17g" does, so they read back exactly and
/// join with spans and flight dumps on equal values.
class CsvTraceSink final : public TraceSink {
 public:
  /// `out` must outlive the sink.
  explicit CsvTraceSink(std::ostream& out);

  void record(const TraceEvent& event) override;

 private:
  std::ostream* out_;
};

}  // namespace anyqos::sim
