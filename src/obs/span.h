// Admission-decision tracing (observability layer 2).
//
// Records each DAC request as a root DecisionSpan with one child AttemptSpan
// per retrial attempt, exposing exactly the state Figure 1's loop consults:
// the member the selector picked and the weight vector it drew from, the
// fixed route's hop count, the bottleneck available bandwidth the PATH walk
// observed, the per-hop reservation outcome (admitted or the blocking link),
// and the retry-counter state. Spans flow through a pluggable SpanSink —
// in-memory for tests, JSONL for tooling — so per-decision behaviour
// (oscillation, retry storms, member starvation) can be diagnosed offline,
// the way anycast CDN load managers expose per-decision state.
//
// Cost discipline: the span hot path allocates nothing when no sink is
// attached — AdmissionController checks DecisionTracer::active() before
// collecting anything (weight snapshots included). With a sink it allocates
// nothing once warm either: the controller snapshots weights into a buffer
// it keeps, and the tracer refills one AttemptSpan per attempt.
#pragma once

#include <cstdint>
#include <functional>
#include <iosfwd>
#include <optional>
#include <string>
#include <vector>

#include "src/net/topology.h"

namespace anyqos::obs {

/// Child span: one attempt of the select -> reserve -> retry loop.
struct AttemptSpan {
  std::uint64_t request_id = 0;       ///< parent DecisionSpan id
  std::uint64_t span_id = 0;          ///< unique per tracer lifetime
  std::size_t attempt_number = 0;     ///< 1-based position in the loop
  double time = 0.0;                  ///< simulated seconds
  std::size_t member_index = 0;       ///< group-member index tried
  net::NodeId member_node = net::kInvalidNode;  ///< its router id
  std::vector<double> weights;        ///< selector weight vector drawn from
  std::size_t route_hops = 0;         ///< fixed route distance D_i
  /// Minimum available bandwidth the reservation's PATH walk observed
  /// (pre-reservation); infinite for 0-hop routes — serialized as null.
  net::Bandwidth bottleneck_bps = 0.0;
  bool admitted = false;              ///< per-hop reservation outcome
  std::optional<net::LinkId> blocking_link;  ///< hop that failed admission
  std::uint64_t messages = 0;         ///< signaling traversals this attempt
  /// PATH retransmissions the reservation needed (resilient signaling only;
  /// 0 under the fault-free protocol). Makes retry storms visible per span.
  std::uint64_t retransmits = 0;
  std::size_t retries_remaining = 0;  ///< retry-counter budget left (R - c)
};

/// Root span: one full DAC request through the Figure 1 loop.
struct DecisionSpan {
  std::uint64_t request_id = 0;
  double start_time = 0.0;            ///< simulated seconds at loop entry
  net::NodeId source = net::kInvalidNode;
  net::Bandwidth bandwidth_bps = 0.0;
  std::string algorithm;              ///< selector name ("ED", "WD/D+H", ...)
  bool admitted = false;
  std::optional<std::size_t> destination_index;  ///< set iff admitted
  std::size_t attempts = 0;           ///< child-span count
  std::uint64_t messages = 0;
  std::size_t max_attempts = 0;       ///< R, the retry budget
  std::size_t group_size = 0;         ///< K
};

/// Receives finished spans. Children arrive before their parent; every
/// AttemptSpan precedes the DecisionSpan carrying its request_id.
class SpanSink {
 public:
  virtual ~SpanSink() = default;
  virtual void on_attempt(const AttemptSpan& span) = 0;
  virtual void on_decision(const DecisionSpan& span) = 0;
};

/// Buffers every span in memory; the workhorse for tests and diagnostics.
class MemorySpanSink final : public SpanSink {
 public:
  void on_attempt(const AttemptSpan& span) override { attempts_.push_back(span); }
  void on_decision(const DecisionSpan& span) override { decisions_.push_back(span); }

  [[nodiscard]] const std::vector<AttemptSpan>& attempts() const { return attempts_; }
  [[nodiscard]] const std::vector<DecisionSpan>& decisions() const { return decisions_; }
  /// The child spans of decision `request_id`, in attempt order.
  [[nodiscard]] std::vector<AttemptSpan> attempts_for(std::uint64_t request_id) const;
  void clear();

 private:
  std::vector<AttemptSpan> attempts_;
  std::vector<DecisionSpan> decisions_;
};

/// Appends `span`'s JSONL line, newline included: one JSON object tagged
/// {"span":"attempt",...}. Shared by JsonlSpanSink and flight snapshots.
void append_jsonl(std::string& line, const AttemptSpan& span);
/// The same for a root span, tagged {"span":"decision",...}.
void append_jsonl(std::string& line, const DecisionSpan& span);

/// Streams spans as JSONL, one line per span (see append_jsonl). `out`
/// must outlive the sink.
class JsonlSpanSink final : public SpanSink {
 public:
  explicit JsonlSpanSink(std::ostream& out);

  void on_attempt(const AttemptSpan& span) override;
  void on_decision(const DecisionSpan& span) override;

 private:
  void write_line();

  std::ostream* out_;
  std::string line_;  // reused for every span
};

/// The glue between AdmissionController and a SpanSink: assembles spans
/// attempt by attempt and emits them when finished. One tracer may serve
/// many controllers (the simulation shares one across all AC-routers);
/// requests are sequential within the DES, so one in-flight span suffices.
class DecisionTracer {
 public:
  /// Registers `sink` to receive spans (nullptr detaches). The sink must
  /// outlive the tracer or be detached first.
  void set_sink(SpanSink* sink) { sink_ = sink; }
  /// True when a sink is attached; controllers skip all collection work
  /// (including weight snapshots) when false.
  [[nodiscard]] bool active() const { return sink_ != nullptr; }

  /// Supplies the simulated-time source for span timestamps (the simulation
  /// installs its kernel clock; unset means every timestamp is 0).
  void set_clock(std::function<double()> clock) { clock_ = std::move(clock); }

  // --- Called by AdmissionController (only when active()) ---
  void begin_request(std::uint64_t request_id, net::NodeId source,
                     net::Bandwidth bandwidth_bps, std::string algorithm,
                     std::size_t max_attempts, std::size_t group_size);
  /// Completes one attempt child span; `weights` is the selector's vector at
  /// selection time (copied) and `retries_remaining` the budget left after it.
  void record_attempt(std::size_t member_index, net::NodeId member_node,
                      const std::vector<double>& weights, std::size_t route_hops,
                      net::Bandwidth bottleneck_bps, bool admitted,
                      std::optional<net::LinkId> blocking_link, std::uint64_t messages,
                      std::uint64_t retransmits, std::size_t retries_remaining);
  void end_request(bool admitted, std::optional<std::size_t> destination_index,
                   std::uint64_t messages);

  /// Spans emitted over this tracer's lifetime (diagnostics).
  [[nodiscard]] std::uint64_t spans_emitted() const { return spans_emitted_; }

 private:
  [[nodiscard]] double now() const { return clock_ ? clock_() : 0.0; }

  SpanSink* sink_ = nullptr;
  std::function<double()> clock_;
  DecisionSpan current_;
  AttemptSpan attempt_;  // refilled per attempt, so its weights keep capacity
  bool in_request_ = false;
  std::uint64_t next_span_id_ = 1;
  std::uint64_t spans_emitted_ = 0;
};

}  // namespace anyqos::obs
