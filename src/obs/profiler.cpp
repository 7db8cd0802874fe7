#include "src/obs/profiler.h"

#include <ostream>

#include "src/des/simulator.h"
#include "src/util/annotations.h"
#include "src/util/require.h"
#include "src/util/strings.h"

namespace anyqos::obs {

namespace {

double seconds_since(std::chrono::steady_clock::time_point start) {
  // The engine profiler is the one component whose job is wall time: it
  // reports real events/s throughput. Nothing it reads feeds model state.
  ANYQOS_DETLINT_ALLOW(wall_clock, "profiler measures real engine throughput");
  return std::chrono::duration<double>(std::chrono::steady_clock::now() - start).count();
}

void write_double(std::ostream& out, double value) { out << util::format_g17(value).view(); }

}  // namespace

void EngineProfiler::attach(des::Simulator& simulator) {
  util::require(simulator_ == nullptr, "profiler already attached");
  simulator_ = &simulator;
  ANYQOS_DETLINT_ALLOW(wall_clock, "profiler measures real engine throughput");
  attach_wall_ = std::chrono::steady_clock::now();
  baseline_events_ = simulator.dispatched_events();
}

EngineProfiler::PhaseScope::PhaseScope(EngineProfiler* profiler, std::size_t index)
    : profiler_(profiler),
      index_(index),
      // ANYQOS_DETLINT_ALLOW(wall_clock, "phase timers report wall seconds")
      start_(std::chrono::steady_clock::now()) {}

EngineProfiler::PhaseScope::PhaseScope(PhaseScope&& other) noexcept
    : profiler_(other.profiler_), index_(other.index_), start_(other.start_) {
  other.profiler_ = nullptr;
}

EngineProfiler::PhaseScope::~PhaseScope() {
  if (profiler_ != nullptr) {
    profiler_->phases_[index_].second += seconds_since(start_);
  }
}

EngineProfiler::PhaseScope EngineProfiler::phase(const std::string& name) {
  for (std::size_t i = 0; i < phases_.size(); ++i) {
    if (phases_[i].first == name) {
      return PhaseScope(this, i);
    }
  }
  phases_.emplace_back(name, 0.0);
  return PhaseScope(this, phases_.size() - 1);
}

double EngineProfiler::phase_seconds(const std::string& name) const {
  for (const auto& [phase, seconds] : phases_) {
    if (phase == name) {
      return seconds;
    }
  }
  return 0.0;
}

ProfileSummary EngineProfiler::summary() const {
  util::require(simulator_ != nullptr, "profiler must be attached before summarizing");
  ProfileSummary s;
  s.sim_time_s = simulator_->now();
  s.wall_seconds = seconds_since(attach_wall_);
  s.events = simulator_->dispatched_events() - baseline_events_;
  if (s.wall_seconds > 0.0) {
    s.events_per_second = static_cast<double>(s.events) / s.wall_seconds;
    s.sim_seconds_per_wall_second = s.sim_time_s / s.wall_seconds;
  }
  s.peak_queue_depth = simulator_->peak_pending_events();
  return s;
}

void EngineProfiler::export_to(MetricsRegistry& registry) const {
  const ProfileSummary s = summary();
  registry.gauge("anyqos_engine_events_total", "DES events dispatched since attach")
      .set(static_cast<double>(s.events));
  registry.gauge("anyqos_engine_events_per_second", "DES dispatch rate, events per wall second")
      .set(s.events_per_second);
  registry.gauge("anyqos_engine_wall_seconds", "Wall-clock seconds since attach")
      .set(s.wall_seconds);
  registry
      .gauge("anyqos_engine_sim_speedup",
             "Simulated seconds advanced per wall-clock second")
      .set(s.sim_seconds_per_wall_second);
  registry.gauge("anyqos_engine_peak_queue_depth", "Maximum pending-event queue depth")
      .set(static_cast<double>(s.peak_queue_depth));
  for (const auto& [phase, seconds] : phases_) {
    registry
        .gauge("anyqos_engine_phase_seconds", "Wall-clock seconds spent per run phase",
               {{"phase", phase}})
        .set(seconds);
  }
}

void EngineProfiler::write_json(std::ostream& out) const {
  const ProfileSummary s = summary();
  out << "{\"summary\":{\"sim_time_s\":";
  write_double(out, s.sim_time_s);
  out << ",\"wall_seconds\":";
  write_double(out, s.wall_seconds);
  out << ",\"events\":" << s.events << ",\"events_per_second\":";
  write_double(out, s.events_per_second);
  out << ",\"sim_seconds_per_wall_second\":";
  write_double(out, s.sim_seconds_per_wall_second);
  out << ",\"peak_queue_depth\":" << s.peak_queue_depth << "},\"phases\":{";
  for (std::size_t i = 0; i < phases_.size(); ++i) {
    if (i > 0) {
      out << ',';
    }
    out << '"' << util::json_escape(phases_[i].first) << "\":";
    write_double(out, phases_[i].second);
  }
  out << "}}\n";
}

}  // namespace anyqos::obs
