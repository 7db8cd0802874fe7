#include "perfbench/layer_probe.h"

#include <algorithm>
#include <limits>
#include <stdexcept>

#include "src/des/event_queue.h"

namespace perfbench {

namespace des = anyqos::des;

LayerProbe::LayerProbe(anyqos::sim::Simulation& simulation)
    : simulation_(&simulation), segments_(kFirstCategory) {
  des::Simulator& kernel = simulation.simulator();
  if (kernel.pending_events() != 0 || kernel.dispatched_events() != 0) {
    throw std::logic_error("layer probe must attach before the first event");
  }
  const std::vector<std::string>& names = kernel.category_names();
  const auto arrival = std::find(names.begin(), names.end(), "sim.arrival");
  if (arrival == names.end()) {
    throw std::logic_error("simulation has no sim.arrival category");
  }
  arrival_category_ = static_cast<std::size_t>(arrival - names.begin());
  kernel.set_kernel_sink(this);
  simulation.set_admission_observer(this);
  attached_ = true;
}

LayerProbe::~LayerProbe() {
  if (attached_) {
    detach();
  }
}

void LayerProbe::detach() {
  simulation_->simulator().set_kernel_sink(nullptr);
  simulation_->set_admission_observer(nullptr);
  attached_ = false;
}

void LayerProbe::begin() {
  last_ = Clock::now();
  current_ = kPrologue;
  ++segments_[kPrologue].count;
}

void LayerProbe::end() {
  const Clock::time_point now = Clock::now();
  segments_[current_].busy_ns += (now - last_).count();
  last_ = now;
  if (in_event_) {
    dispatch_[event_category_].busy_ns += (now - event_start_).count();
  }
  // Categories interned during run() (governor timers) are known only now.
  names_ = simulation_->simulator().category_names();
  dispatch_.resize(std::max(dispatch_.size(), names_.size()));
  detach();
}

void LayerProbe::open(Clock::time_point now, std::size_t segment) {
  segments_[current_].busy_ns += (now - last_).count();
  last_ = now;
  if (segment >= segments_.size()) {
    segments_.resize(segment + 1);
  }
  current_ = segment;
  ++segments_[segment].count;
}

void LayerProbe::on_scheduled(des::EventCategory category, double /*now*/, double when) {
  ++scheduled_;
  ops_.push_back({when, QueueOp::kSchedule, category.id});
}

void LayerProbe::on_fired(des::EventCategory category, double /*scheduled_at*/, double /*now*/) {
  const Clock::time_point now = Clock::now();
  if (in_event_) {
    dispatch_[event_category_].busy_ns += (now - event_start_).count();
  }
  open(now, kFirstCategory + category.id);
  event_category_ = category.id;
  event_start_ = now;
  in_event_ = true;
  if (event_category_ >= dispatch_.size()) {
    dispatch_.resize(event_category_ + 1);
  }
  ++dispatch_[event_category_].count;
  ++fired_;
  ops_.push_back({0.0, QueueOp::kPop, 0});
  peak_active_ = std::max(peak_active_, simulation_->active_flows());
}

void LayerProbe::on_cancelled(des::EventCategory category, double /*now*/) {
  ++cancelled_;
  ops_.push_back({0.0, QueueOp::kCancel, category.id});
}

void LayerProbe::on_request_begin(anyqos::net::NodeId /*source*/) {
  open(Clock::now(), kSelect);
}

void LayerProbe::on_attempt(anyqos::net::NodeId /*source*/, std::size_t /*member_index*/) {
  open(Clock::now(), kAttempt);
}

void LayerProbe::on_decision(anyqos::net::NodeId /*source*/,
                             const anyqos::core::AdmissionDecision& decision,
                             std::size_t /*max_attempts*/, std::size_t /*group_size*/) {
  // Failover re-admissions and path repairs decide inside non-arrival
  // events; their tail belongs to that event, not to arrival_post.
  open(Clock::now(), in_event_ && event_category_ == arrival_category_
                         ? std::size_t{kArrivalPost}
                         : kFirstCategory + event_category_);
  ++decisions_;
  admits_ += decision.admitted ? 1 : 0;
  messages_ += decision.messages;
}

SegmentTotals LayerProbe::rest_of_event(std::size_t category) const {
  const std::size_t index = kFirstCategory + category;
  return index < segments_.size() ? segments_[index] : SegmentTotals{};
}

std::int64_t LayerProbe::segment_sum_ns() const {
  std::int64_t sum = 0;
  for (const SegmentTotals& segment : segments_) {
    sum += segment.busy_ns;
  }
  return sum;
}

ReplayResult replay_queue(std::vector<QueueOp>& ops) {
  // Pass 1 (untimed): resolve cancel targets. Event ids of a fresh queue are
  // 1, 2, 3, ... in schedule order, so pass 2 reproduces them exactly.
  {
    des::EventQueue queue;
    std::vector<std::vector<std::uint64_t>> by_category;
    std::vector<char> live(1, 0);  // indexed by event id
    for (QueueOp& op : ops) {
      switch (op.kind) {
        case QueueOp::kSchedule: {
          const des::EventHandle handle = queue.schedule(
              op.when, [] {}, des::EventCategory{static_cast<std::uint16_t>(op.arg)}, 0.0);
          if (handle.id != live.size()) {
            throw std::logic_error("queue replay: unexpected event id");
          }
          live.push_back(1);
          if (op.arg >= by_category.size()) {
            by_category.resize(op.arg + 1);
          }
          by_category[op.arg].push_back(handle.id);
          break;
        }
        case QueueOp::kPop: {
          if (queue.empty()) {
            throw std::logic_error("queue replay: pop from an empty queue");
          }
          live[queue.pop().id] = 0;
          break;
        }
        case QueueOp::kCancel: {
          std::vector<std::uint64_t>* stack =
              op.arg < by_category.size() ? &by_category[op.arg] : nullptr;
          while (stack != nullptr && !stack->empty() && live[stack->back()] == 0) {
            stack->pop_back();
          }
          if (stack == nullptr || stack->empty()) {
            throw std::logic_error("queue replay: cancel with no live event of its category");
          }
          const std::uint64_t target = stack->back();
          stack->pop_back();
          if (target > std::numeric_limits<std::uint32_t>::max()) {
            throw std::logic_error("queue replay: event id overflows the op record");
          }
          queue.cancel(des::EventHandle{target});
          live[target] = 0;
          op.arg = static_cast<std::uint32_t>(target);
          break;
        }
      }
    }
  }
  // Pass 2 (timed): the bare queue work only.
  ReplayResult result;
  des::EventQueue queue;
  const Clock::time_point start = Clock::now();
  for (const QueueOp& op : ops) {
    switch (op.kind) {
      case QueueOp::kSchedule:
        queue.schedule(op.when, [] {}, des::EventCategory{static_cast<std::uint16_t>(op.arg)},
                       0.0);
        break;
      case QueueOp::kPop:
        queue.pop();
        ++result.pops;
        break;
      case QueueOp::kCancel:
        queue.cancel(des::EventHandle{op.arg});
        break;
    }
  }
  result.ns = (Clock::now() - start).count();
  return result;
}

}  // namespace perfbench
