#include "src/sim/trace.h"

#include <algorithm>
#include <ostream>

#include "src/util/require.h"
#include "src/util/strings.h"

namespace anyqos::sim {

std::string_view to_string(TraceEventKind kind) {
  switch (kind) {
    case TraceEventKind::kAdmitted:
      return "ADMITTED";
    case TraceEventKind::kRejected:
      return "REJECTED";
    case TraceEventKind::kDeparted:
      return "DEPARTED";
    case TraceEventKind::kDropped:
      return "DROPPED";
    case TraceEventKind::kLinkDown:
      return "LINK_DOWN";
    case TraceEventKind::kLinkUp:
      return "LINK_UP";
    case TraceEventKind::kMemberDown:
      return "MEMBER_DOWN";
    case TraceEventKind::kMemberUp:
      return "MEMBER_UP";
    case TraceEventKind::kFailover:
      return "FAILOVER";
    case TraceEventKind::kShed:
      return "SHED";
    case TraceEventKind::kNodeDown:
      return "NODE_DOWN";
    case TraceEventKind::kNodeUp:
      return "NODE_UP";
    case TraceEventKind::kReconverged:
      return "RECONVERGED";
    case TraceEventKind::kRepaired:
      return "REPAIRED";
    case TraceEventKind::kRepairFailed:
      return "REPAIR_FAILED";
  }
  util::unreachable("TraceEventKind");
}

std::size_t MemoryTraceSink::count(TraceEventKind kind) const {
  return static_cast<std::size_t>(
      std::count_if(events_.begin(), events_.end(),
                    [kind](const TraceEvent& e) { return e.kind == kind; }));
}

CsvTraceSink::CsvTraceSink(std::ostream& out) : out_(&out) {
  *out_ << "time,kind,flow,source,destination,attempts,bandwidth_bps,active\n";
}

void CsvTraceSink::record(const TraceEvent& event) {
  *out_ << util::format_g17(event.time).view() << ',' << to_string(event.kind) << ',';
  if (event.flow == 0) {
    *out_ << '-';  // link events carry no request id
  } else {
    *out_ << event.flow;
  }
  *out_ << ',';
  if (event.source == net::kInvalidNode) {
    *out_ << '-';
  } else {
    *out_ << event.source;
  }
  *out_ << ',';
  if (event.destination == net::kInvalidNode) {
    *out_ << '-';
  } else {
    *out_ << event.destination;
  }
  *out_ << ',' << event.attempts << ',' << util::format_g17(event.bandwidth_bps).view() << ','
        << event.active_flows << '\n';
}

}  // namespace anyqos::sim
