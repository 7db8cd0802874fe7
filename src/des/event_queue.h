// detlint: hot-path
// Pending-event set for the discrete-event simulator.
#pragma once

#include <cstdint>
#include <queue>
#include <unordered_map>
#include <vector>

#include "src/des/action.h"
#include "src/des/category.h"

namespace anyqos::des {

/// Opaque handle identifying a scheduled event, usable for cancellation.
struct EventHandle {
  std::uint64_t id = 0;
  [[nodiscard]] bool valid() const { return id != 0; }
};

/// Min-heap of timestamped callbacks with deterministic FIFO tie-breaking:
/// two events at the same time fire in the order they were scheduled.
/// Cancellation is lazy (tombstoned) so it stays O(log n) amortized.
class EventQueue {
 public:
  /// Scheduled callbacks are des::Action — inline storage, move-only, no
  /// type-erased std::function on the hot path (DESIGN.md §12, rule 5).
  using Action = des::Action;

  /// Schedules `action` at absolute time `time`; returns a cancellation
  /// handle. `category` and `scheduled_at` (the caller's clock at schedule
  /// time) ride along with the stored entry and come back out through
  /// Fired / the telemetry cancel overload — the queue itself never reads
  /// them, so kernel telemetry needs no shadow bookkeeping of its own.
  EventHandle schedule(double time, Action action, EventCategory category = {},
                       double scheduled_at = 0.0);

  /// Cancels a pending event. Returns false when the event already fired,
  /// was already cancelled, or the handle is invalid.
  bool cancel(EventHandle handle);
  /// Cancel variant reporting the cancelled event's category (set only on
  /// success) — what the simulator feeds an attached kernel sink.
  bool cancel(EventHandle handle, EventCategory& category);

  /// True when no live (non-cancelled) events remain.
  [[nodiscard]] bool empty() const { return live_ == 0; }
  /// Number of live events.
  [[nodiscard]] std::size_t size() const { return live_; }
  /// Timestamp of the earliest live event; requires !empty().
  [[nodiscard]] double next_time() const;

  /// Removes and returns the earliest live event; requires !empty().
  struct Fired {
    double time;
    std::uint64_t id;
    Action action;
    EventCategory category;
    double scheduled_at;
  };
  Fired pop();

  /// Cumulative count of tombstoned (already-cancelled) heap entries skipped
  /// by drop_cancelled() — the garbage the lazy-cancellation scheme trades
  /// for O(log n) cancel. Monotone over the queue's lifetime.
  [[nodiscard]] std::uint64_t tombstones_popped() const { return tombstones_popped_; }
  /// Raw heap entries, live plus not-yet-collected tombstones. The excess
  /// over size() is the current tombstone backlog.
  [[nodiscard]] std::size_t heap_entries() const { return heap_.size(); }

 private:
  // Ids are drawn 1, 2, 3, ... in schedule order, so ordering by (time, id)
  // is the FIFO tie-break and the id doubles as the sequence number.
  struct Entry {
    double time;
    std::uint64_t id;
  };
  struct Later {
    bool operator()(const Entry& a, const Entry& b) const {
      if (a.time != b.time) {
        return a.time > b.time;
      }
      return a.id > b.id;
    }
  };

  /// Pops heap entries whose action was cancelled until the top is live.
  void drop_cancelled() const;

  struct Stored {
    Action action;
    EventCategory category;
    double scheduled_at;
  };

  // Stored events live in `pending_` keyed by event id; the heap stores
  // plain (time, id) entries, so cancelling is just erasing from the map and
  // the heap entry becomes a tombstone skipped by drop_cancelled().
  mutable std::priority_queue<Entry, std::vector<Entry>, Later> heap_;
  std::unordered_map<std::uint64_t, Stored> pending_;
  std::uint64_t next_id_ = 1;
  std::size_t live_ = 0;
  mutable std::uint64_t tombstones_popped_ = 0;
};

}  // namespace anyqos::des
