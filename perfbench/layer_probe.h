// Per-layer wall-time attribution for one simulation, measured from outside
// the library.
//
// LayerProbe is a des::KernelSink and a core::AdmissionObserver. It stamps a
// steady clock at every callback and charges the interval since the previous
// stamp to the segment that the previous stamp opened, so the segments
// partition the traced run() exactly:
//
//   on_fired(c)          opens "rest of event c" (for sim.arrival: the part
//                        before the admission loop)
//   on_request_begin     opens select   (first destination choice)
//   on_attempt           opens attempt  (walk, ledger, report, retry check)
//   on_decision          opens arrival_post inside an arrival event (metrics,
//                        flow table, link utilisation, departure scheduling,
//                        next pop); otherwise back to the enclosing event
//
// Independently, each event's whole dispatch (on_fired to the next on_fired)
// is charged to its kernel category. Totals are kept per segment (count and
// busy ns), never per request. The same sink records the kernel's
// schedule/pop/cancel sequence so replay_queue() can time it through a bare
// des::EventQueue.
#pragma once

#include <chrono>
#include <cstdint>
#include <string>
#include <vector>

#include "src/core/admission.h"
#include "src/des/kernel_sink.h"
#include "src/sim/simulation.h"

namespace perfbench {

using Clock = std::chrono::steady_clock;

/// Busy time and number of openings of one segment.
struct SegmentTotals {
  std::uint64_t count = 0;
  std::int64_t busy_ns = 0;

  void add(const SegmentTotals& other) {
    count += other.count;
    busy_ns += other.busy_ns;
  }
};

/// One kernel operation, in the order the simulator performed it.
struct QueueOp {
  enum Kind : std::uint32_t { kSchedule, kPop, kCancel };
  double when = 0.0;     ///< kSchedule: due time
  Kind kind = kSchedule;
  std::uint32_t arg = 0; ///< category id; for kCancel after replay_queue: the target event id
};

class LayerProbe final : public anyqos::des::KernelSink, public anyqos::core::AdmissionObserver {
 public:
  /// Attaches to `simulation` before its run(), as its kernel sink and its
  /// admission observer (GDI runs have no controllers, so the observer is
  /// never called there). Throws if the calendar already holds events the
  /// sink would never see. Until end() has run, `simulation` must outlive
  /// the probe.
  explicit LayerProbe(anyqos::sim::Simulation& simulation);
  /// Detaches if end() never ran (run() threw).
  ~LayerProbe() override;
  LayerProbe(const LayerProbe&) = delete;
  LayerProbe& operator=(const LayerProbe&) = delete;

  /// Stamp taken immediately before run().
  void begin();
  /// Stamp taken immediately after run() returns; detaches from the
  /// simulation, after which either object may be destroyed first.
  void end();

  void on_scheduled(anyqos::des::EventCategory category, double now, double when) override;
  void on_fired(anyqos::des::EventCategory category, double scheduled_at, double now) override;
  void on_cancelled(anyqos::des::EventCategory category, double now) override;
  void on_request_begin(anyqos::net::NodeId source) override;
  void on_attempt(anyqos::net::NodeId source, std::size_t member_index) override;
  void on_decision(anyqos::net::NodeId source, const anyqos::core::AdmissionDecision& decision,
                   std::size_t max_attempts, std::size_t group_size) override;

  /// Whole-event dispatch per kernel category id, with the names.
  [[nodiscard]] const std::vector<SegmentTotals>& dispatch() const { return dispatch_; }
  [[nodiscard]] const std::vector<std::string>& category_names() const { return names_; }
  [[nodiscard]] std::size_t arrival_category() const { return arrival_category_; }
  /// Fine segment "rest of event" for category id `category`.
  [[nodiscard]] SegmentTotals rest_of_event(std::size_t category) const;
  [[nodiscard]] const SegmentTotals& select() const { return segments_[kSelect]; }
  [[nodiscard]] const SegmentTotals& attempt() const { return segments_[kAttempt]; }
  [[nodiscard]] const SegmentTotals& arrival_post() const { return segments_[kArrivalPost]; }
  /// Sum of every fine segment's busy time: begin() to end().
  [[nodiscard]] std::int64_t segment_sum_ns() const;

  [[nodiscard]] std::uint64_t scheduled() const { return scheduled_; }
  [[nodiscard]] std::uint64_t fired() const { return fired_; }
  [[nodiscard]] std::uint64_t cancelled() const { return cancelled_; }
  [[nodiscard]] std::uint64_t decisions() const { return decisions_; }
  [[nodiscard]] std::uint64_t admits() const { return admits_; }
  [[nodiscard]] std::uint64_t messages() const { return messages_; }
  [[nodiscard]] std::size_t peak_active_flows() const { return peak_active_; }

  /// The recorded kernel operations (moved out for the replay).
  [[nodiscard]] std::vector<QueueOp> take_ops() { return std::move(ops_); }

 private:
  enum : std::size_t { kPrologue, kSelect, kAttempt, kArrivalPost, kFirstCategory };

  void open(Clock::time_point now, std::size_t segment);
  void detach();

  anyqos::sim::Simulation* simulation_;
  bool attached_ = false;
  std::size_t arrival_category_ = 0;
  std::vector<std::string> names_;
  std::vector<SegmentTotals> segments_;  // fine segments; kFirstCategory + category id
  std::vector<SegmentTotals> dispatch_;  // whole events by category id
  std::vector<QueueOp> ops_;
  Clock::time_point last_{};
  Clock::time_point event_start_{};
  std::size_t current_ = kPrologue;
  std::size_t event_category_ = 0;
  bool in_event_ = false;
  std::uint64_t scheduled_ = 0;
  std::uint64_t fired_ = 0;
  std::uint64_t cancelled_ = 0;
  std::uint64_t decisions_ = 0;
  std::uint64_t admits_ = 0;
  std::uint64_t messages_ = 0;
  std::size_t peak_active_ = 0;
};

/// Result of replaying a recorded operation sequence.
struct ReplayResult {
  std::int64_t ns = 0;     ///< wall time of the timed replay
  std::uint64_t pops = 0;  ///< events popped by the timed replay
};

/// Replays `ops` through a bare des::EventQueue with no-op actions. A first,
/// untimed pass resolves each cancel to a concrete event (the kernel sink
/// reports only the cancelled event's category, so the target is the most
/// recently scheduled live event of that category); the second pass is
/// timed. Throws if the sequence pops or cancels from an empty set.
ReplayResult replay_queue(std::vector<QueueOp>& ops);

}  // namespace perfbench
