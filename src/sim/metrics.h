// Measurement collection for simulation runs (paper Section 5.1's metrics:
// admission probability and average number of retrials, plus the signaling
// and utilization diagnostics this library adds).
#pragma once

#include <cstdint>
#include <vector>

#include "src/stats/accumulator.h"
#include "src/stats/confidence.h"
#include "src/stats/histogram.h"
#include "src/stats/time_weighted.h"

namespace anyqos::sim {

/// Why an active flow's reservation was torn down (robustness extension).
/// Orphan reclaims are *not* teardowns of active flows — they release state
/// the signaling plane lost track of — and are counted by the resilient
/// protocol itself (signaling::ResilienceStats::orphans_reclaimed).
enum class TeardownCause : std::uint8_t {
  kExplicit,   ///< flow departed normally at the end of its holding time
  kLinkFault,  ///< a link on the flow's route failed
  kChurn,      ///< the group member the flow was pinned to went down
};

inline constexpr std::size_t kTeardownCauseCount = 3;

/// Streaming collector fed by the simulation; ignores everything recorded
/// before `begin_measurement` is called (warm-up deletion).
class MetricsCollector {
 public:
  /// `group_size` sizes the per-destination admission tally;
  /// `batch_count` configures the batch-means CI for admission probability.
  MetricsCollector(std::size_t group_size, std::size_t batch_count = 20);

  /// Starts the measurement window at simulated time `now` — prior samples
  /// are discarded, the active-flow integral restarts.
  void begin_measurement(double now);
  [[nodiscard]] bool measuring() const { return measuring_; }

  /// Records one admission decision: outcome, destinations tried, signaling
  /// messages spent, and (when admitted) the pinned destination index.
  void record_decision(bool admitted, std::size_t attempts, std::uint64_t messages,
                       std::size_t destination_index);
  /// Records the active-flow count after it changed at time `now`.
  void record_active_flows(double now, std::size_t active);
  /// Records one flow teardown attributed to `cause`. Fault and churn
  /// teardowns also count as dropped flows.
  void record_teardown(TeardownCause cause);
  /// Records one failover re-admission attempt for a flow displaced by
  /// churn, and whether the network re-admitted it.
  void record_failover(bool admitted);
  /// Records one request fast-rejected by the overload governor's signaling
  /// budget before any reservation walk. Shed requests are *not* offered
  /// load: they appear in neither the admission probability nor the
  /// attempts/messages statistics, exactly because they cost zero walks —
  /// the separate tally keeps the two rejection causes distinguishable.
  void record_shed();
  /// Records one path-repair resolution for a flow broken by a failure on
  /// its route: re-signaled onto the post-reconvergence route (`repaired`)
  /// or dropped (unrepairable — dead endpoint, partition, or no capacity).
  /// Counted separately from churn failover: repair preserves the admitted
  /// flow, failover re-offers a torn-down one.
  void record_repair(bool repaired);

  // --- Results (valid once measuring) ---
  [[nodiscard]] std::uint64_t offered() const { return offered_; }
  [[nodiscard]] std::uint64_t admitted() const { return admitted_; }
  /// Point estimate of the admission probability.
  [[nodiscard]] double admission_probability() const;
  /// Batch-means CI for the admission probability at `level`.
  [[nodiscard]] stats::ConfidenceInterval admission_ci(double level) const;
  /// Mean destinations tried per request (the paper's retrial metric).
  [[nodiscard]] double average_attempts() const;
  /// Distribution of destinations tried per request.
  [[nodiscard]] const stats::CountHistogram& attempts_histogram() const { return attempts_; }
  /// Mean signaling messages per request.
  [[nodiscard]] double average_messages() const;
  /// Admissions pinned to each group member.
  [[nodiscard]] const std::vector<std::uint64_t>& per_destination_admissions() const {
    return per_destination_;
  }
  /// Time-averaged number of active flows over the measurement window.
  [[nodiscard]] double average_active_flows(double now) const;
  /// Flows torn down involuntarily (link faults + member churn).
  [[nodiscard]] std::uint64_t dropped_flows() const { return dropped_; }
  /// Teardown tally attributed to `cause`.
  [[nodiscard]] std::uint64_t teardowns(TeardownCause cause) const;
  [[nodiscard]] std::uint64_t failover_attempts() const { return failover_attempts_; }
  [[nodiscard]] std::uint64_t failover_admitted() const { return failover_admitted_; }
  /// Requests shed by the governor's signaling budget (measurement window).
  [[nodiscard]] std::uint64_t shed() const { return shed_; }
  /// Broken flows re-signaled onto a live route (measurement window).
  [[nodiscard]] std::uint64_t repaired() const { return repaired_; }
  /// Broken flows dropped because no repair was possible (measurement window).
  [[nodiscard]] std::uint64_t unrepairable() const { return unrepairable_; }

  // --- Lifetime tallies (warm-up included) ---
  // The timeline sampler computes windowed rates from cumulative counters,
  // and its windows cover warm-up too (annotated, not discarded), so these
  // run from t = 0 and are never reset by begin_measurement.
  [[nodiscard]] std::uint64_t lifetime_offered() const { return lifetime_offered_; }
  [[nodiscard]] std::uint64_t lifetime_admitted() const { return lifetime_admitted_; }
  [[nodiscard]] std::uint64_t lifetime_rejected() const {
    return lifetime_offered_ - lifetime_admitted_;
  }
  /// Destinations tried summed over every request seen.
  [[nodiscard]] std::uint64_t lifetime_attempts() const { return lifetime_attempts_; }
  [[nodiscard]] std::uint64_t lifetime_teardowns(TeardownCause cause) const;
  [[nodiscard]] std::uint64_t lifetime_failover_attempts() const {
    return lifetime_failover_attempts_;
  }
  [[nodiscard]] std::uint64_t lifetime_failover_admitted() const {
    return lifetime_failover_admitted_;
  }
  [[nodiscard]] std::uint64_t lifetime_shed() const { return lifetime_shed_; }
  /// Successful path repairs, lifetime (the repairs_per_s timeline column).
  [[nodiscard]] std::uint64_t lifetime_repaired() const { return lifetime_repaired_; }

 private:
  bool measuring_ = false;
  std::uint64_t offered_ = 0;
  std::uint64_t admitted_ = 0;
  std::uint64_t dropped_ = 0;
  std::uint64_t teardowns_[kTeardownCauseCount] = {0, 0, 0};
  std::uint64_t failover_attempts_ = 0;
  std::uint64_t failover_admitted_ = 0;
  std::uint64_t shed_ = 0;
  std::uint64_t repaired_ = 0;
  std::uint64_t unrepairable_ = 0;
  std::uint64_t lifetime_shed_ = 0;
  std::uint64_t lifetime_repaired_ = 0;
  std::uint64_t lifetime_offered_ = 0;
  std::uint64_t lifetime_admitted_ = 0;
  std::uint64_t lifetime_attempts_ = 0;
  std::uint64_t lifetime_teardowns_[kTeardownCauseCount] = {0, 0, 0};
  std::uint64_t lifetime_failover_attempts_ = 0;
  std::uint64_t lifetime_failover_admitted_ = 0;
  stats::BatchMeans admission_batches_;
  stats::CountHistogram attempts_;
  stats::Accumulator messages_;
  std::vector<std::uint64_t> per_destination_;
  stats::TimeWeighted active_flows_;
};

}  // namespace anyqos::sim
