// detlint: hot-path
// Event-driven simulation kernel.
//
// Replaces the paper's Mesquite CSIM (process-oriented, commercial) with an
// event-driven core: a virtual clock plus an event queue. Model code
// schedules closures at absolute or relative virtual times; `run` dispatches
// them in timestamp order. Single-threaded by design — determinism matters
// more than parallelism at this model size.
//
// A Simulator instance is fully self-contained: it owns its clock, its
// pending-event set, and its randomness (a SeedSequence every model stream
// derives from). Nothing in the kernel reads global state or the host
// clock, so two instances at the same seed replay byte-identically and many
// instances can run side by side — the isolation contract conservative
// parallel DES builds on (DESIGN.md §12).
#pragma once

#include <cstdint>
#include <limits>
#include <string>
#include <string_view>
#include <vector>

#include "src/des/category.h"
#include "src/des/event_queue.h"
#include "src/des/kernel_sink.h"
#include "src/des/random.h"

namespace anyqos::des {

/// The simulation kernel: owns the virtual clock, the pending-event set, and
/// the per-instance seed universe.
class Simulator {
 public:
  using Action = EventQueue::Action;

  /// `seed` is this instance's RNG master seed: every stochastic component
  /// of a model must draw from a stream derived via seeds()/stream(), never
  /// from an engine it constructed itself (DESIGN.md §12, rule 2).
  explicit Simulator(std::uint64_t seed = 0) : seeds_(seed) {}

  /// Current virtual time (seconds). Starts at 0.
  [[nodiscard]] double now() const { return now_; }

  /// The per-instance seed universe model streams derive from.
  [[nodiscard]] const SeedSequence& seeds() const { return seeds_; }
  /// A fresh named stream from this instance's seed universe.
  [[nodiscard]] RandomStream stream(std::string_view name) const {
    return seeds_.stream(name);
  }

  /// Schedules `action` at absolute virtual time `time` (>= now()).
  EventHandle schedule_at(double time, Action action) {
    return schedule_at(time, EventCategory{}, std::move(action));
  }
  /// Schedules `action` `delay` seconds from now (delay >= 0).
  EventHandle schedule_in(double delay, Action action) {
    return schedule_in(delay, EventCategory{}, std::move(action));
  }
  /// Tagged variants: `category` names the event class for an attached
  /// KernelSink (from this instance's category(name)). With no sink the tag
  /// is dead weight in one register — zero cost on the unattached path.
  EventHandle schedule_at(double time, EventCategory category, Action action);
  EventHandle schedule_in(double delay, EventCategory category, Action action);
  /// Cancels a pending event; returns false if it already fired/cancelled.
  bool cancel(EventHandle handle);

  /// Interns `name` in this instance's category table and returns its tag.
  /// Repeated interning of the same name returns the same id; ids are
  /// assigned in first-intern order, which deterministic model wiring fixes.
  EventCategory category(std::string_view name);
  /// Category names indexed by EventCategory::id. Index 0 is the reserved
  /// "uncategorized" bucket untagged schedule calls land in.
  [[nodiscard]] const std::vector<std::string>& category_names() const {
    return category_names_;
  }

  /// Attaches (nullptr detaches) a kernel telemetry sink. Attach before the
  /// first schedule call — a sink only sees operations from attach onward.
  /// Unattached, every schedule/fire/cancel pays one null-pointer test.
  void set_kernel_sink(KernelSink* sink) { kernel_sink_ = sink; }
  [[nodiscard]] KernelSink* kernel_sink() const { return kernel_sink_; }

  /// Dispatches events in timestamp order until the queue is empty or the
  /// next event is strictly after `until`. The clock ends at `until` when it
  /// is finite, else at the last event time. Returns the number of events
  /// dispatched.
  std::size_t run_until(double until);

  /// Runs until the event queue is empty. Returns events dispatched.
  std::size_t run() { return run_until(std::numeric_limits<double>::infinity()); }

  /// The dispatch loop itself, with an event budget: dispatches at most
  /// `max_events` events (0 = unlimited). A drain that would otherwise spin
  /// forever — a self-rescheduling timer that never stops, a ping-ponging
  /// pair — exhausts the budget and returns with the remaining events still
  /// queued, so callers can diagnose instead of hang (sim::Simulation's
  /// drain watchdog). Unlike run_until, an emptied queue leaves the clock at
  /// the last dispatched event rather than advancing to `until`: a bounded
  /// drain that completes ends at quiescence, exactly like run().
  std::size_t run_bounded(double until, std::size_t max_events);

  /// Live events still queued.
  [[nodiscard]] std::size_t pending_events() const { return queue_.size(); }
  /// Total events dispatched over the simulator's lifetime.
  [[nodiscard]] std::uint64_t dispatched_events() const { return dispatched_; }
  /// High-water mark of the pending-event set over the simulator's lifetime
  /// (engine profiling: how deep the calendar actually got).
  [[nodiscard]] std::size_t peak_pending_events() const { return peak_pending_; }
  /// Cumulative tombstoned heap entries the queue skipped (lazy cancels).
  [[nodiscard]] std::uint64_t tombstones_popped() const {
    return queue_.tombstones_popped();
  }

 private:
  SeedSequence seeds_;
  EventQueue queue_;
  double now_ = 0.0;
  std::uint64_t dispatched_ = 0;
  std::size_t peak_pending_ = 0;
  KernelSink* kernel_sink_ = nullptr;
  std::vector<std::string> category_names_{std::string("uncategorized")};
};

}  // namespace anyqos::des
