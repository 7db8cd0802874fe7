// Fault-triggered flight recorder (observability layer 5).
//
// A bounded ring buffer of the most recent decision spans and annotated
// model events. Nothing is written while the run is healthy; when a trigger
// fires — the InvariantAuditor raises a violation, a link outage takes a
// flow down, a churn event kills a group member — the recorder dumps the
// ring as a JSONL snapshot: the bounded causal history that led up to the
// fault, black-box style. This turns a chaos-matrix pass/fail verdict into
// an explainable sequence of the last N decisions.
//
// The recorder plugs into the existing tracing plane rather than adding a
// second collection path: span_sink() is a SpanSink the DecisionTracer
// writes into (optionally teeing to a downstream sink such as a JSONL
// file), and note() accepts the flow/link/member events the simulation
// already emits for its trace stream.
//
// Cost discipline: like the no-sink span path, a recorder that is not
// threaded into the simulation costs nothing — every producer checks its
// config pointer first. An attached recorder formats nothing and, once
// warm, allocates nothing per event: flow events enter the ring as raw
// FlowNote values, every slot keeps the storage (weights, strings) its
// earlier entries left, and all text is built by trigger(). Snapshots are
// bounded twice: the ring holds at most `depth` entries and at most
// `max_dumps` snapshots are written per run (later triggers are still
// counted, so the tally stays honest).
#pragma once

#include <cstdint>
#include <iosfwd>
#include <string>
#include <string_view>
#include <vector>

#include "src/obs/span.h"

namespace anyqos::obs {

/// Tuning knobs for the recorder.
struct FlightRecorderOptions {
  /// Ring capacity in entries (spans + events); must be positive.
  std::size_t depth = 256;
  /// Snapshots written per recorder lifetime; further triggers only count.
  std::size_t max_dumps = 16;
};

/// One free-form model event in the ring, e.g. a recovery give-up.
struct FlightNote {
  double time = 0.0;
  std::string kind;    ///< e.g. "retransmit_exhaustion", "orphan_expiry"
  std::string detail;  ///< free-form context assembled by the producer
};

/// One event of the simulation's flow trace (admissions, drops, link and
/// member changes), kept raw. trigger() renders its detail as
/// "flow=F src=S dst=D attempts=A bw_bps=B active=N": B with "%.0f", D as
/// "-" for kInvalidNode.
struct FlowNote {
  double time = 0.0;
  std::string_view kind;  ///< static name, e.g. "ADMITTED"; must outlive the recorder
  std::uint64_t flow = 0;
  net::NodeId source = net::kInvalidNode;
  net::NodeId destination = net::kInvalidNode;
  std::size_t attempts = 0;
  double bandwidth_bps = 0.0;
  std::size_t active_flows = 0;
};

/// Bounded black-box recorder; see the file comment for the contract.
class FlightRecorder {
 public:
  explicit FlightRecorder(FlightRecorderOptions options = {});

  /// The sink to attach a DecisionTracer to: every span lands in the ring
  /// and is forwarded to the downstream sink (when one is set). The
  /// returned reference is valid for the recorder's lifetime.
  [[nodiscard]] SpanSink& span_sink() { return sink_; }
  /// Tees every span this recorder receives on to `sink` (nullptr
  /// detaches), so a run can keep a full spans-out artifact *and* the
  /// bounded flight ring from one tracer.
  void set_forward(SpanSink* sink) { forward_ = sink; }

  /// Appends one free-form model event to the ring.
  void note(double time, std::string_view kind, std::string_view detail);
  /// Appends one flow-trace event to the ring, formatting nothing.
  void note(const FlowNote& event);

  /// Snapshot destination (nullptr detaches: triggers only count). `out`
  /// must outlive the recorder or be detached first.
  void set_output(std::ostream* out) { out_ = out; }

  /// Fires one trigger: writes the ring (oldest entry first) as a JSONL
  /// snapshot to the attached output — a header object carrying `reason`
  /// and the trigger time, then one line per entry — unless no output is
  /// attached or max_dumps is exhausted. Returns the entries dumped (0 when
  /// the snapshot was suppressed). The ring is NOT cleared: overlapping
  /// triggers each see the full causal window.
  std::size_t trigger(double time, std::string_view reason);

  [[nodiscard]] std::size_t entries() const { return size_; }
  [[nodiscard]] std::uint64_t triggers() const { return triggers_; }
  [[nodiscard]] std::uint64_t dumps_written() const { return dumps_written_; }
  [[nodiscard]] const FlightRecorderOptions& options() const { return options_; }

  /// Drops every buffered entry (counters are kept).
  void clear();

 private:
  /// A ring slot holds one entry of each kind and a tag for the live one,
  /// so rewriting a slot reuses whatever storage earlier entries left.
  struct Slot {
    enum class Kind : std::uint8_t { kAttempt, kDecision, kFlow, kNote };
    Kind kind = Kind::kNote;
    AttemptSpan attempt;
    DecisionSpan decision;
    FlowNote flow;
    FlightNote note;
  };

  class RingSink final : public SpanSink {
   public:
    explicit RingSink(FlightRecorder& owner) : owner_(&owner) {}
    void on_attempt(const AttemptSpan& span) override;
    void on_decision(const DecisionSpan& span) override;

   private:
    FlightRecorder* owner_;
  };

  /// The slot the next entry goes into, tagged `kind`; overwrites the
  /// oldest entry once the ring is full.
  Slot& push(Slot::Kind kind);
  /// Appends the snapshot line of `slot`'s live entry to snapshot_.
  void append_line(const Slot& slot);

  FlightRecorderOptions options_;
  RingSink sink_{*this};
  SpanSink* forward_ = nullptr;
  std::ostream* out_ = nullptr;
  std::vector<Slot> ring_;  // grows to depth, then circular; never shrinks
  std::size_t size_ = 0;    // live entries
  std::size_t next_ = 0;    // oldest entry (and next write) once full
  std::string snapshot_;    // trigger()'s text, reused across dumps
  std::uint64_t triggers_ = 0;
  std::uint64_t dumps_written_ = 0;
};

}  // namespace anyqos::obs
