#include "src/obs/kernel_stats.h"

#include <cmath>
#include <limits>
#include <ostream>

#include "src/des/simulator.h"
#include "src/util/require.h"
#include "src/util/strings.h"

namespace anyqos::obs {

namespace {

// Same rendering contract as the timeline writer: integers exactly when
// representable, otherwise shortest round-trip %.17g — byte-stable across
// runs, which the kernel-stats double-run gate relies on.
void write_number(std::ostream& out, double value) {
  if (!std::isfinite(value)) {
    out << "null";
    return;
  }
  if (value == static_cast<double>(static_cast<long long>(value))) {
    out << static_cast<long long>(value);
    return;
  }
  out << util::format_g17(value).view();
}

void write_hist(std::ostream& out, const KernelStats::BucketCounts& hist) {
  out << "{\"bounds\":[";
  for (std::size_t i = 0; i < hist.n; ++i) {
    if (i > 0) {
      out << ',';
    }
    write_number(out, hist.upper[i]);
  }
  out << "],\"counts\":[";
  for (std::size_t i = 0; i <= hist.n; ++i) {
    if (i > 0) {
      out << ',';
    }
    out << hist.counts[i];
  }
  out << "],\"count\":" << hist.total() << ",\"sum\":";
  write_number(out, hist.sum);
  out << '}';
}

// Default virtual-seconds bounds covering every timer population in the
// model: sub-millisecond signaling hops through multi-thousand-second
// holding times and breaker cooldowns.
std::vector<double> default_seconds_bounds() {
  return {0.001, 0.01, 0.1, 1.0, 10.0, 100.0, 1000.0, 10000.0};
}

std::vector<double> default_burst_bounds() {
  return {1.0, 2.0, 4.0, 8.0, 16.0, 32.0, 64.0};
}

}  // namespace

KernelStats::BucketCounts::BucketCounts(const std::vector<double>& bounds) : n(bounds.size()) {
  util::require(n <= kMaxBounds, "too many histogram bounds");
  upper.fill(std::numeric_limits<double>::infinity());
  for (std::size_t i = 0; i < n; ++i) {
    upper[i] = bounds[i];
  }
}

void KernelStats::BucketCounts::observe(double value) {
  // Branchless rank: the target bucket is the number of bounds strictly
  // below `value` (== index of the first bound >= value, or n for +Inf;
  // padding bounds are +Inf so they never count). Event times are
  // scattered across decades, so an early-exit scan mispredicts on every
  // call; a fixed 8 flag-adds over inline storage costs less. This runs
  // twice per simulated event when a sink is attached — it is the hottest
  // code in the telemetry plane.
  std::size_t bucket = 0;
  for (std::size_t i = 0; i < kMaxBounds; ++i) {
    bucket += static_cast<std::size_t>(value > upper[i]);
  }
  ++counts[bucket];
  sum += value;
}

std::uint64_t KernelStats::BucketCounts::total() const {
  std::uint64_t observations = 0;
  for (std::size_t i = 0; i <= n; ++i) {
    observations += counts[i];
  }
  return observations;
}

KernelStats::CategoryStats::CategoryStats(const std::vector<double>& horizon_bounds,
                                          const std::vector<double>& wait_bounds)
    : horizon(horizon_bounds), wait(wait_bounds) {}

KernelStats::KernelStats()
    : seconds_bounds_(default_seconds_bounds()),
      burst_bounds_(default_burst_bounds()),
      burst_(default_burst_bounds()) {}

void KernelStats::attach(des::Simulator& simulator) {
  util::require(simulator_ == nullptr, "kernel stats already attached");
  util::require(simulator.kernel_sink() == nullptr,
                "simulator already has a kernel sink");
  util::require(simulator.pending_events() == 0 && simulator.dispatched_events() == 0,
                "attach kernel stats before the first schedule");
  simulator_ = &simulator;
  simulator.set_kernel_sink(this);
}

KernelStats::CategoryStats& KernelStats::stats_for(std::uint16_t category_id) {
  while (categories_.size() <= category_id) {
    categories_.emplace_back(seconds_bounds_, seconds_bounds_);
  }
  return categories_[category_id];
}

void KernelStats::on_scheduled(des::EventCategory category, double now, double when) {
  CategoryStats& stats = stats_for(category.id);
  ++stats.scheduled;
  stats.horizon.observe(when - now);
}

void KernelStats::on_fired(des::EventCategory category, double scheduled_at, double now) {
  CategoryStats& stats = stats_for(category.id);
  ++stats.fired;
  stats.wait.observe(now - scheduled_at);
  if (open_burst_ > 0 && now == last_fire_time_) {
    ++open_burst_;
  } else {
    if (open_burst_ > 0) {
      burst_.observe(static_cast<double>(open_burst_));
    }
    open_burst_ = 1;
    last_fire_time_ = now;
  }
}

void KernelStats::on_cancelled(des::EventCategory category, double /*now*/) {
  ++stats_for(category.id).cancelled;
}

std::size_t KernelStats::still_pending() const {
  util::require(simulator_ != nullptr, "kernel stats not attached");
  return simulator_->pending_events();
}

std::size_t KernelStats::queue_depth_high_water() const {
  util::require(simulator_ != nullptr, "kernel stats not attached");
  return simulator_->peak_pending_events();
}

const std::vector<std::string>& KernelStats::category_names() const {
  util::require(simulator_ != nullptr, "kernel stats not attached");
  return simulator_->category_names();
}

std::uint64_t KernelStats::total_scheduled() const {
  std::uint64_t total = 0;
  for (const CategoryStats& stats : categories_) {
    total += stats.scheduled;
  }
  return total;
}

std::uint64_t KernelStats::total_fired() const {
  std::uint64_t total = 0;
  for (const CategoryStats& stats : categories_) {
    total += stats.fired;
  }
  return total;
}

std::uint64_t KernelStats::total_cancelled() const {
  std::uint64_t total = 0;
  for (const CategoryStats& stats : categories_) {
    total += stats.cancelled;
  }
  return total;
}

std::uint64_t KernelStats::tombstones_popped() const {
  util::require(simulator_ != nullptr, "kernel stats not attached");
  return simulator_->tombstones_popped();
}

double KernelStats::tombstone_ratio() const {
  const std::uint64_t tombstones = tombstones_popped();
  const std::uint64_t pops = tombstones + total_fired();
  return pops == 0 ? 0.0 : static_cast<double>(tombstones) / static_cast<double>(pops);
}

KernelStats::BucketCounts KernelStats::burst_histogram() const {
  BucketCounts closed = burst_;
  if (open_burst_ > 0) {
    closed.observe(static_cast<double>(open_burst_));
  }
  return closed;
}

void KernelStats::write_jsonl(std::ostream& out) const {
  const std::vector<std::string>& names = category_names();
  out << "{\"kernel\":\"header\",\"schema\":\"anyqos-kernel-stats/1\",\"categories\":"
      << names.size() << "}\n";
  const CategoryStats empty(seconds_bounds_, seconds_bounds_);
  for (std::size_t i = 0; i < names.size(); ++i) {
    const CategoryStats& stats = i < categories_.size() ? categories_[i] : empty;
    out << "{\"kernel\":\"category\",\"name\":\"" << names[i]
        << "\",\"scheduled\":" << stats.scheduled << ",\"fired\":" << stats.fired
        << ",\"cancelled\":" << stats.cancelled
        << ",\"pending\":" << stats.still_pending() << ",\"horizon\":";
    write_hist(out, stats.horizon);
    out << ",\"wait\":";
    write_hist(out, stats.wait);
    out << "}\n";
  }
  out << "{\"kernel\":\"summary\",\"scheduled\":" << total_scheduled()
      << ",\"fired\":" << total_fired() << ",\"cancelled\":" << total_cancelled()
      << ",\"pending\":" << still_pending()
      << ",\"dispatched\":" << simulator_->dispatched_events()
      << ",\"queue_depth_hwm\":" << queue_depth_high_water()
      << ",\"tombstones_popped\":" << tombstones_popped() << ",\"tombstone_ratio\":";
  write_number(out, tombstone_ratio());
  out << ",\"burst\":";
  write_hist(out, burst_histogram());
  out << "}\n";
}

void KernelStats::export_to(MetricsRegistry& registry, const Labels& extra) const {
  const std::vector<std::string>& names = category_names();
  const CategoryStats empty(seconds_bounds_, seconds_bounds_);
  // Aggregate histograms across categories: one series each keeps the
  // exposition small while the JSONL artifact carries the per-category cut.
  Histogram& horizon = registry.histogram(
      "anyqos_kernel_horizon_seconds",
      "Scheduling horizon (due minus now at schedule time), virtual seconds.",
      seconds_bounds_, extra);
  Histogram& wait = registry.histogram(
      "anyqos_kernel_wait_seconds",
      "Virtual time events spent in the queue before firing.", seconds_bounds_, extra);
  const auto replay = [](Histogram& target, const BucketCounts& hist) {
    for (std::size_t i = 0; i < hist.n; ++i) {
      if (hist.counts[i] > 0) {
        target.observe(hist.upper[i], hist.counts[i]);
      }
    }
    if (hist.counts[hist.n] > 0) {
      target.observe(hist.upper[hist.n - 1] * 2.0, hist.counts[hist.n]);
    }
  };
  for (std::size_t i = 0; i < names.size(); ++i) {
    const CategoryStats& stats = i < categories_.size() ? categories_[i] : empty;
    const auto outcome_counter = [&](const char* outcome, std::uint64_t value) {
      Labels labels = extra;
      labels.push_back({"category", names[i]});
      labels.push_back({"outcome", outcome});
      registry
          .counter("anyqos_kernel_events_total",
                   "Kernel events by category and scheduling outcome.", std::move(labels))
          .increment(value);
    };
    outcome_counter("scheduled", stats.scheduled);
    outcome_counter("fired", stats.fired);
    outcome_counter("cancelled", stats.cancelled);
    replay(horizon, stats.horizon);
    replay(wait, stats.wait);
  }
  Histogram& burst = registry.histogram(
      "anyqos_kernel_burst_length",
      "Lengths of maximal same-timestamp event bursts (FIFO tie-break runs).",
      burst_bounds_, extra);
  replay(burst, burst_histogram());
  registry
      .gauge("anyqos_kernel_queue_depth_hwm",
             "High-water mark of the pending-event set while attached.", extra)
      .set(static_cast<double>(queue_depth_high_water()));
  registry
      .counter("anyqos_kernel_tombstones_total",
               "Tombstoned (cancelled) heap entries skipped by the event queue.", extra)
      .increment(tombstones_popped());
  registry
      .gauge("anyqos_kernel_tombstone_ratio",
             "Fraction of heap pops that were cancellation tombstones.", extra)
      .set(tombstone_ratio());
}

}  // namespace anyqos::obs
