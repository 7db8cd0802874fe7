#include "src/des/simulator.h"

#include <algorithm>
#include <cmath>
#include <limits>

#include "src/util/require.h"

namespace anyqos::des {

EventHandle Simulator::schedule_at(double time, EventCategory category, Action action) {
  util::require(!std::isnan(time), "event time must not be NaN");
  util::require(time >= now_, "cannot schedule an event in the past");
  EventHandle handle = queue_.schedule(time, std::move(action), category, now_);
  peak_pending_ = std::max(peak_pending_, queue_.size());
  if (kernel_sink_ != nullptr) {
    kernel_sink_->on_scheduled(category, now_, time);
  }
  return handle;
}

EventHandle Simulator::schedule_in(double delay, EventCategory category, Action action) {
  util::require(!std::isnan(delay) && delay >= 0.0, "event delay must be non-negative");
  const double when = now_ + delay;
  EventHandle handle = queue_.schedule(when, std::move(action), category, now_);
  peak_pending_ = std::max(peak_pending_, queue_.size());
  if (kernel_sink_ != nullptr) {
    kernel_sink_->on_scheduled(category, now_, when);
  }
  return handle;
}

bool Simulator::cancel(EventHandle handle) {
  EventCategory category;
  const bool cancelled = queue_.cancel(handle, category);
  if (cancelled && kernel_sink_ != nullptr) {
    kernel_sink_->on_cancelled(category, now_);
  }
  return cancelled;
}

EventCategory Simulator::category(std::string_view name) {
  util::require(!name.empty(), "category name must be non-empty");
  for (std::size_t i = 0; i < category_names_.size(); ++i) {
    if (category_names_[i] == name) {
      return EventCategory{static_cast<std::uint16_t>(i)};
    }
  }
  util::require(category_names_.size() <= std::numeric_limits<std::uint16_t>::max(),
                "category table full");
  category_names_.emplace_back(name);
  return EventCategory{static_cast<std::uint16_t>(category_names_.size() - 1)};
}

std::size_t Simulator::run_until(double until) {
  const std::size_t fired = run_bounded(until, 0);
  if (queue_.empty() && std::isfinite(until)) {
    now_ = until;
  }
  return fired;
}

std::size_t Simulator::run_bounded(double until, std::size_t max_events) {
  util::require(until >= now_, "run target precedes current time");
  const std::size_t budget =
      max_events == 0 ? std::numeric_limits<std::size_t>::max() : max_events;
  std::size_t fired = 0;
  while (!queue_.empty() && fired < budget) {
    if (queue_.next_time() > until) {
      now_ = until;
      return fired;
    }
    EventQueue::Fired event = queue_.pop();
    now_ = event.time;
    if (kernel_sink_ != nullptr) {
      kernel_sink_->on_fired(event.category, event.scheduled_at, now_);
    }
    event.action();
    ++dispatched_;
    ++fired;
  }
  return fired;
}

}  // namespace anyqos::des
