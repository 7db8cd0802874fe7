#include "src/obs/profiler.h"

#include <gtest/gtest.h>

#include <sstream>
#include <stdexcept>

#include "src/des/simulator.h"

namespace anyqos::obs {
namespace {

// Schedules a self-perpetuating chain of events, one per simulated second.
void install_event_chain(des::Simulator& sim, int count) {
  if (count <= 0) {
    return;
  }
  sim.schedule_in(1.0, [&sim, count] { install_event_chain(sim, count - 1); });
}

TEST(EngineProfiler, ChecksSampleAndSummaryPreconditions) {
  EngineProfiler profiler;
  EXPECT_THROW((void)profiler.summary(), std::invalid_argument);
  des::Simulator sim;
  profiler.attach(sim);
  EXPECT_THROW(profiler.attach(sim), std::invalid_argument);
}

TEST(EngineProfiler, AttachBaselineExcludesEarlierEvents) {
  des::Simulator sim;
  install_event_chain(sim, 10);
  sim.run_until(5.5);  // 5 events before the profiler exists
  EngineProfiler profiler;
  profiler.attach(sim);
  sim.run_until(100.0);
  EXPECT_EQ(profiler.summary().events, 5u);  // only the 5 after attach
}

TEST(EngineProfiler, PhaseScopesAccumulateWallTime) {
  EngineProfiler profiler;
  {
    const auto scope = profiler.phase("warmup");
    (void)scope;
  }
  {
    const auto scope = profiler.phase("measure");
    (void)scope;
  }
  {
    const auto scope = profiler.phase("measure");  // repeats add up
    (void)scope;
  }
  ASSERT_EQ(profiler.phases().size(), 2u);
  EXPECT_EQ(profiler.phases()[0].first, "warmup");
  EXPECT_EQ(profiler.phases()[1].first, "measure");
  EXPECT_GE(profiler.phase_seconds("warmup"), 0.0);
  EXPECT_GE(profiler.phase_seconds("measure"), 0.0);
  EXPECT_DOUBLE_EQ(profiler.phase_seconds("never-timed"), 0.0);
}

TEST(EngineProfiler, SummaryUsesKernelQueueHighWaterMark) {
  des::Simulator sim;
  // Burst of near-simultaneous events: queue depth spikes to 50 and
  // drains again; the summary reports the kernel's high-water mark.
  for (int i = 0; i < 50; ++i) {
    sim.schedule_in(1.0 + 0.001 * i, [] {});
  }
  EngineProfiler profiler;
  profiler.attach(sim);
  sim.run_until(10.0);
  EXPECT_EQ(profiler.summary().peak_queue_depth, 50u);
}

TEST(EngineProfiler, ExportsEngineGaugesToRegistry) {
  des::Simulator sim;
  install_event_chain(sim, 20);
  EngineProfiler profiler;
  profiler.attach(sim);
  {
    const auto scope = profiler.phase("measure");
    sim.run_until(30.0);
  }
  MetricsRegistry registry;
  profiler.export_to(registry);
  EXPECT_DOUBLE_EQ(registry.gauge("anyqos_engine_events_total", "").value(), 20.0);
  EXPECT_GT(registry.gauge("anyqos_engine_events_per_second", "").value(), 0.0);
  EXPECT_EQ(registry.cardinality("anyqos_engine_phase_seconds"), 1u);
  EXPECT_GE(
      registry.gauge("anyqos_engine_phase_seconds", "", {{"phase", "measure"}}).value(), 0.0);
}

TEST(EngineProfiler, WritesJsonReport) {
  des::Simulator sim;
  install_event_chain(sim, 5);
  EngineProfiler profiler;
  profiler.attach(sim);
  {
    const auto scope = profiler.phase("measure");
    sim.run_until(5.5);
  }
  std::ostringstream out;
  profiler.write_json(out);
  const std::string text = out.str();
  EXPECT_EQ(text.front(), '{');
  EXPECT_NE(text.find("\"summary\":{"), std::string::npos);
  EXPECT_NE(text.find("\"events\":"), std::string::npos);
  EXPECT_NE(text.find("\"phases\":{\"measure\":"), std::string::npos);
  EXPECT_NE(text.find("\"peak_queue_depth\":"), std::string::npos);
}

}  // namespace
}  // namespace anyqos::obs
