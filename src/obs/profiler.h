// Engine profiling hooks (observability layer 3).
//
// Answers one question the other planes do not: how a run's wall time split
// across its phases (warm-up vs measurement vs drain, or whatever the caller
// brackets), and how fast the DES kernel went overall — events per wall
// second and simulated seconds per wall second.
//
// The profiler schedules no events: every summary field is read from the
// kernel's own counters (dispatched events, queue high-water mark), so an
// attached profiler leaves the calendar, every artifact, and any drain
// exactly as an unprofiled run would — it only spends wall time. Periodic
// population and queue-depth series are the timeline's job (obs::Timeline).
#pragma once

#include <chrono>  // wall-clock throughput profiling; see ALLOW notes below
#include <cstdint>
#include <iosfwd>
#include <string>
#include <utility>
#include <vector>

#include "src/obs/registry.h"

namespace anyqos::des {
class Simulator;
}  // namespace anyqos::des

namespace anyqos::obs {

/// Aggregate over a profiled run.
struct ProfileSummary {
  double sim_time_s = 0.0;
  double wall_seconds = 0.0;
  std::uint64_t events = 0;           ///< dispatched since attach()
  double events_per_second = 0.0;     ///< events / wall_seconds
  double sim_seconds_per_wall_second = 0.0;
  std::size_t peak_queue_depth = 0;   ///< kernel pending-event high-water mark
};

/// Wall-clock phase timers plus DES throughput gauges. One instance profiles
/// one kernel run; construct fresh per simulation.
class EngineProfiler {
 public:
  /// Starts the wall clock and snapshots the kernel's dispatch baseline.
  /// Call before running the simulator; `simulator` must outlive this.
  void attach(des::Simulator& simulator);

  /// RAII wall-clock timer; accumulates into the named phase on destruction.
  class PhaseScope {
   public:
    PhaseScope(PhaseScope&& other) noexcept;
    PhaseScope(const PhaseScope&) = delete;
    PhaseScope& operator=(const PhaseScope&) = delete;
    PhaseScope& operator=(PhaseScope&&) = delete;
    ~PhaseScope();

   private:
    friend class EngineProfiler;
    PhaseScope(EngineProfiler* profiler, std::size_t index);
    EngineProfiler* profiler_;
    std::size_t index_;
    std::chrono::steady_clock::time_point start_;
  };

  /// Starts timing `name`; the returned scope adds its lifetime to the
  /// phase's accumulated seconds. Phases may repeat (times add up).
  [[nodiscard]] PhaseScope phase(const std::string& name);
  /// Accumulated wall seconds of `name` (0 when never timed).
  [[nodiscard]] double phase_seconds(const std::string& name) const;
  /// All phases in first-use order.
  [[nodiscard]] const std::vector<std::pair<std::string, double>>& phases() const {
    return phases_;
  }

  /// Aggregate up to now (valid after attach()).
  [[nodiscard]] ProfileSummary summary() const;

  /// Registers the summary and phase timers as anyqos_engine_* gauges.
  void export_to(MetricsRegistry& registry) const;
  /// One JSON object: {"summary":{...},"phases":{...}}.
  void write_json(std::ostream& out) const;

 private:
  des::Simulator* simulator_ = nullptr;
  std::chrono::steady_clock::time_point attach_wall_{};
  std::uint64_t baseline_events_ = 0;
  std::vector<std::pair<std::string, double>> phases_;
};

}  // namespace anyqos::obs
