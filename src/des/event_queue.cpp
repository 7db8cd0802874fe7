#include "src/des/event_queue.h"

#include "src/util/require.h"

namespace anyqos::des {

EventHandle EventQueue::schedule(double time, Action action, EventCategory category,
                                 double scheduled_at) {
  util::require(static_cast<bool>(action), "cannot schedule an empty action");
  const std::uint64_t id = next_id_++;
  heap_.push(Entry{time, id});
  pending_.emplace(id, Stored{std::move(action), category, scheduled_at});
  ++live_;
  return EventHandle{id};
}

bool EventQueue::cancel(EventHandle handle) {
  EventCategory ignored;
  return cancel(handle, ignored);
}

bool EventQueue::cancel(EventHandle handle, EventCategory& category) {
  if (!handle.valid()) {
    return false;
  }
  const auto it = pending_.find(handle.id);
  if (it == pending_.end()) {
    return false;
  }
  category = it->second.category;
  pending_.erase(it);
  --live_;
  return true;
}

void EventQueue::drop_cancelled() const {
  while (!heap_.empty() && pending_.find(heap_.top().id) == pending_.end()) {
    heap_.pop();
    ++tombstones_popped_;
  }
}

double EventQueue::next_time() const {
  util::require(!empty(), "next_time on an empty event queue");
  drop_cancelled();
  util::ensure(!heap_.empty(), "live count positive but heap exhausted");
  return heap_.top().time;
}

EventQueue::Fired EventQueue::pop() {
  util::require(!empty(), "pop on an empty event queue");
  drop_cancelled();
  util::ensure(!heap_.empty(), "live count positive but heap exhausted");
  const Entry top = heap_.top();
  heap_.pop();
  const auto it = pending_.find(top.id);
  util::ensure(it != pending_.end(), "live heap top has no pending action");
  Fired fired{top.time, top.id, std::move(it->second.action), it->second.category,
              it->second.scheduled_at};
  pending_.erase(it);
  --live_;
  return fired;
}

}  // namespace anyqos::des
