#include "src/sim/metrics.h"

#include "src/util/require.h"

namespace anyqos::sim {

MetricsCollector::MetricsCollector(std::size_t group_size, std::size_t batch_count)
    : admission_batches_(batch_count), per_destination_(group_size, 0) {
  util::require(group_size >= 1, "metrics need a positive group size");
}

void MetricsCollector::begin_measurement(double now) {
  util::require(!measuring_, "measurement already started");
  measuring_ = true;
  active_flows_.restart(now);
}

void MetricsCollector::record_decision(bool admitted, std::size_t attempts,
                                       std::uint64_t messages, std::size_t destination_index) {
  // Validate every argument before the first mutation so a bad call leaves
  // the collector untouched (no half-recorded decision). The destination
  // bound is checked even for rejections: callers pass an index either way,
  // and an out-of-range one signals a corrupted decision upstream.
  // Zero attempts is legal only for rejections: with every group member down
  // (churn) there is nobody to try and the request bounces immediately.
  util::require(admitted ? attempts >= 1 : true,
                "an admission involves at least one attempt");
  util::require(destination_index < per_destination_.size(),
                "destination index out of range");
  ++lifetime_offered_;
  lifetime_attempts_ += attempts;
  if (admitted) {
    ++lifetime_admitted_;
  }
  if (!measuring_) {
    return;
  }
  ++offered_;
  admission_batches_.add(admitted ? 1.0 : 0.0);
  attempts_.add(attempts);
  messages_.add(static_cast<double>(messages));
  if (admitted) {
    ++admitted_;
    ++per_destination_[destination_index];
  }
}

void MetricsCollector::record_active_flows(double now, std::size_t active) {
  active_flows_.update(now, static_cast<double>(active));
}

void MetricsCollector::record_teardown(TeardownCause cause) {
  const auto index = static_cast<std::size_t>(cause);
  util::require(index < kTeardownCauseCount, "unknown teardown cause");
  ++lifetime_teardowns_[index];
  if (!measuring_) {
    return;
  }
  ++teardowns_[index];
  if (cause != TeardownCause::kExplicit) {
    ++dropped_;  // involuntary teardowns are the paper-facing "dropped" tally
  }
}

void MetricsCollector::record_failover(bool admitted) {
  ++lifetime_failover_attempts_;
  if (admitted) {
    ++lifetime_failover_admitted_;
  }
  if (!measuring_) {
    return;
  }
  ++failover_attempts_;
  if (admitted) {
    ++failover_admitted_;
  }
}

void MetricsCollector::record_shed() {
  ++lifetime_shed_;
  if (measuring_) {
    ++shed_;
  }
}

void MetricsCollector::record_repair(bool repaired) {
  if (repaired) {
    ++lifetime_repaired_;
  }
  if (!measuring_) {
    return;
  }
  if (repaired) {
    ++repaired_;
  } else {
    ++unrepairable_;
  }
}

std::uint64_t MetricsCollector::teardowns(TeardownCause cause) const {
  const auto index = static_cast<std::size_t>(cause);
  util::require(index < kTeardownCauseCount, "unknown teardown cause");
  return teardowns_[index];
}

std::uint64_t MetricsCollector::lifetime_teardowns(TeardownCause cause) const {
  const auto index = static_cast<std::size_t>(cause);
  util::require(index < kTeardownCauseCount, "unknown teardown cause");
  return lifetime_teardowns_[index];
}

double MetricsCollector::admission_probability() const {
  return offered_ == 0 ? 0.0
                       : static_cast<double>(admitted_) / static_cast<double>(offered_);
}

stats::ConfidenceInterval MetricsCollector::admission_ci(double level) const {
  if (!admission_batches_.ready()) {
    stats::ConfidenceInterval ci;
    ci.mean = admission_probability();
    return ci;
  }
  return admission_batches_.confidence(level);
}

double MetricsCollector::average_attempts() const { return attempts_.mean(); }

double MetricsCollector::average_messages() const { return messages_.mean(); }

double MetricsCollector::average_active_flows(double now) const {
  return active_flows_.mean(now);
}

}  // namespace anyqos::sim
