#include "src/des/simulator.h"

#include <gtest/gtest.h>

#include <vector>

namespace anyqos::des {
namespace {

TEST(Simulator, ClockStartsAtZero) {
  Simulator sim;
  EXPECT_DOUBLE_EQ(sim.now(), 0.0);
}

TEST(Simulator, RunUntilAdvancesClockToTarget) {
  Simulator sim;
  sim.run_until(42.0);
  EXPECT_DOUBLE_EQ(sim.now(), 42.0);
}

TEST(Simulator, EventsSeeTheirOwnTimestamp) {
  Simulator sim;
  double seen = -1.0;
  sim.schedule_at(5.0, [&] { seen = sim.now(); });
  sim.run_until(10.0);
  EXPECT_DOUBLE_EQ(seen, 5.0);
  EXPECT_DOUBLE_EQ(sim.now(), 10.0);
}

TEST(Simulator, ScheduleInIsRelative) {
  Simulator sim;
  std::vector<double> times;
  sim.schedule_at(3.0, [&] {
    sim.schedule_in(2.0, [&] { times.push_back(sim.now()); });
  });
  sim.run();
  ASSERT_EQ(times.size(), 1u);
  EXPECT_DOUBLE_EQ(times[0], 5.0);
}

TEST(Simulator, RunUntilDoesNotFireLaterEvents) {
  Simulator sim;
  bool fired = false;
  sim.schedule_at(10.0, [&] { fired = true; });
  const std::size_t count = sim.run_until(9.999);
  EXPECT_EQ(count, 0u);
  EXPECT_FALSE(fired);
  EXPECT_EQ(sim.pending_events(), 1u);
  sim.run_until(10.0);  // boundary is inclusive
  EXPECT_TRUE(fired);
}

TEST(Simulator, EventsChainRecursively) {
  Simulator sim;
  int hops = 0;
  std::function<void()> hop = [&] {
    ++hops;
    if (hops < 100) {
      sim.schedule_in(1.0, hop);
    }
  };
  sim.schedule_at(0.0, hop);
  sim.run();
  EXPECT_EQ(hops, 100);
  EXPECT_DOUBLE_EQ(sim.now(), 99.0);
}

TEST(Simulator, PastSchedulingThrows) {
  Simulator sim;
  sim.run_until(10.0);
  EXPECT_THROW(sim.schedule_at(5.0, [] {}), std::invalid_argument);
  EXPECT_THROW(sim.schedule_in(-1.0, [] {}), std::invalid_argument);
}

TEST(Simulator, RunUntilBackwardThrows) {
  Simulator sim;
  sim.run_until(10.0);
  EXPECT_THROW(sim.run_until(5.0), std::invalid_argument);
}

TEST(Simulator, CancelStopsPendingEvent) {
  Simulator sim;
  bool fired = false;
  const EventHandle handle = sim.schedule_at(1.0, [&] { fired = true; });
  EXPECT_TRUE(sim.cancel(handle));
  sim.run();
  EXPECT_FALSE(fired);
}

TEST(Simulator, DispatchedEventsAccumulate) {
  Simulator sim;
  for (int i = 0; i < 5; ++i) {
    sim.schedule_at(static_cast<double>(i), [] {});
  }
  sim.run();
  EXPECT_EQ(sim.dispatched_events(), 5u);
}

TEST(Simulator, RunReturnsEventCountAndDrainsQueue) {
  Simulator sim;
  sim.schedule_at(1.0, [] {});
  sim.schedule_at(2.0, [] {});
  EXPECT_EQ(sim.run(), 2u);
  EXPECT_EQ(sim.pending_events(), 0u);
  EXPECT_DOUBLE_EQ(sim.now(), 2.0);  // infinite target: clock rests at last event
}

TEST(Simulator, SameTimeEventsFifoAcrossScheduling) {
  Simulator sim;
  std::vector<int> order;
  sim.schedule_at(1.0, [&] { order.push_back(0); });
  sim.schedule_at(1.0, [&] {
    order.push_back(1);
    // An event scheduled *at the current time* from within an event runs
    // after already-queued same-time events.
    sim.schedule_at(1.0, [&] { order.push_back(3); });
  });
  sim.schedule_at(1.0, [&] { order.push_back(2); });
  sim.run();
  EXPECT_EQ(order, (std::vector<int>{0, 1, 2, 3}));
}

}  // namespace
}  // namespace anyqos::des
