#include "src/sim/sim_driver.h"

#include <gtest/gtest.h>

#include <limits>
#include <string>

namespace dpack {
namespace {

AlphaGridPtr Grid() { return AlphaGrid::Default(); }

Task FractionTask(TaskId id, double fraction, size_t recent, double arrival) {
  RdpCurve capacity = BlockCapacityCurve(Grid(), 10.0, 1e-7);
  Task t(id, 1.0, capacity.Scaled(fraction));
  t.num_recent_blocks = recent;
  t.arrival_time = arrival;
  return t;
}

SimConfig SmallConfig() {
  SimConfig config;
  config.num_blocks = 5;
  config.unlock_steps = 4;
  config.period = 1.0;
  return config;
}

TEST(SimDriverTest, OnlineAllocatesEverythingWhenBudgetAmple) {
  std::vector<Task> tasks;
  for (int i = 0; i < 10; ++i) {
    tasks.push_back(FractionTask(i, 0.01, 2, static_cast<double>(i % 5)));
  }
  SimResult result = RunOnlineSimulation(CreateScheduler(SchedulerKind::kDpack), tasks,
                                         SmallConfig());
  EXPECT_EQ(result.metrics.submitted(), 10u);
  EXPECT_EQ(result.metrics.allocated(), 10u);
  EXPECT_EQ(result.blocks_created, 5u);
  EXPECT_EQ(result.pending_at_end, 0u);
}

TEST(SimDriverTest, ContendedBudgetLimitsAllocations) {
  // 20 tasks each wanting 30% of one block's budget: at most 3 fit per block.
  std::vector<Task> tasks;
  for (int i = 0; i < 20; ++i) {
    tasks.push_back(FractionTask(i, 0.30, 1, 0.1));
  }
  SimConfig config = SmallConfig();
  config.num_blocks = 1;
  SimResult result = RunOnlineSimulation(CreateScheduler(SchedulerKind::kDpack), tasks, config);
  EXPECT_EQ(result.metrics.allocated(), 3u);
  EXPECT_EQ(result.pending_at_end, 17u);
}

TEST(SimDriverTest, DelaysReflectUnlocking) {
  // A single task wanting 100% of a block must wait for the final unlock step.
  std::vector<Task> tasks = {FractionTask(0, 1.0, 1, 0.0)};
  SimConfig config = SmallConfig();
  config.num_blocks = 1;
  config.unlock_steps = 4;
  SimResult result = RunOnlineSimulation(CreateScheduler(SchedulerKind::kDpack), tasks, config);
  ASSERT_EQ(result.metrics.allocated(), 1u);
  EXPECT_DOUBLE_EQ(result.metrics.delays().Quantile(0.5), 3.0);  // Unlocked at cycle t = 3.
}

TEST(SimDriverTest, DeterministicAcrossRuns) {
  std::vector<Task> tasks;
  for (int i = 0; i < 30; ++i) {
    tasks.push_back(FractionTask(i, 0.2, 2, static_cast<double>(i) / 7.0));
  }
  SimResult a = RunOnlineSimulation(CreateScheduler(SchedulerKind::kDpf), tasks, SmallConfig());
  SimResult b = RunOnlineSimulation(CreateScheduler(SchedulerKind::kDpf), tasks, SmallConfig());
  EXPECT_EQ(a.metrics.allocated(), b.metrics.allocated());
  EXPECT_EQ(a.cycles_run, b.cycles_run);
}

TEST(SimDriverTest, OfflineScheduleGrantsImmediately) {
  std::vector<Task> tasks;
  for (int i = 0; i < 4; ++i) {
    tasks.push_back(FractionTask(i, 0.2, 3, 0.0));
  }
  auto scheduler = CreateScheduler(SchedulerKind::kDpack);
  SimResult result = RunOfflineSchedule(*scheduler, tasks, SmallConfig());
  EXPECT_EQ(result.metrics.allocated(), 4u);
  EXPECT_EQ(result.cycles_run, 1u);
}

TEST(SimDriverTest, TimeoutsEvict) {
  std::vector<Task> tasks;
  Task hopeless = FractionTask(0, 0.9, 1, 0.0);
  hopeless.timeout = 1.0;
  tasks.push_back(hopeless);
  SimConfig config = SmallConfig();
  config.num_blocks = 1;
  config.unlock_steps = 100;  // Unlocks far too slowly for a 90% task within the horizon.
  SimResult result = RunOnlineSimulation(CreateScheduler(SchedulerKind::kFcfs), tasks, config);
  EXPECT_EQ(result.metrics.allocated(), 0u);
  EXPECT_EQ(result.metrics.evicted(), 1u);
}

// The run order, pinned through the sim driver: at one instant blocks arrive before tasks,
// and tasks before the cycle. Block 0 is 90% spent at t = 0, so a task that resolves to it
// cannot run; unlock_steps = 1 unlocks each block fully at its first cycle.
SimConfig OrderConfig(std::vector<double> block_times) {
  SimConfig config;
  config.block_arrival_times = std::move(block_times);
  config.unlock_steps = 1;
  config.period = 1.0;
  config.record_grant_trace = true;
  return config;
}

TEST(SimDriverOrderTest, BlockTaskAndCycleAtOneInstantGrantInThatCycle) {
  // Block 1, task 2 and a cycle all at t = 1: the task resolves to block 1 (it arrived
  // first) and the cycle at t = 1 grants it.
  std::vector<Task> tasks = {FractionTask(1, 0.9, 1, 0.0), FractionTask(2, 0.5, 1, 1.0)};
  SimResult result =
      RunOnlineSimulation(CreateScheduler(SchedulerKind::kFcfs), tasks, OrderConfig({0.0, 1.0}));
  ASSERT_GE(result.grant_trace.size(), 2u);
  EXPECT_EQ(result.grant_trace[0], std::vector<TaskId>{1});
  EXPECT_EQ(result.grant_trace[1], std::vector<TaskId>{2});
  EXPECT_EQ(result.metrics.allocated(), 2u);
}

TEST(SimDriverOrderTest, TaskResolvesToTheBlocksPresentAtItsArrival) {
  // Task 2 at 0.5 resolves to block 0, the only one present then, not to block 1 (arriving
  // at 0.7, before the next cycle): it never runs, though block 1 could hold it.
  std::vector<Task> tasks = {FractionTask(1, 0.9, 1, 0.0), FractionTask(2, 0.5, 1, 0.5)};
  SimResult result =
      RunOnlineSimulation(CreateScheduler(SchedulerKind::kFcfs), tasks, OrderConfig({0.0, 0.7}));
  EXPECT_EQ(result.blocks_created, 2u);
  EXPECT_EQ(result.metrics.allocated(), 1u);
  EXPECT_EQ(result.pending_at_end, 1u);
}

TEST(SimDriverOrderTest, EqualArrivalsKeepWorkloadOrderUnderTheAdmissionBound) {
  // Listed out of arrival order; tasks 9 and 4 both arrive at 0.5 with room for one: the
  // one listed first (9) is admitted and granted, 4 is turned away.
  std::vector<Task> tasks = {FractionTask(7, 0.1, 1, 2.5), FractionTask(9, 0.1, 1, 0.5),
                             FractionTask(4, 0.1, 1, 0.5)};
  SimConfig config = OrderConfig({0.0});
  config.admission_queue_capacity = 1;
  SimResult result = RunOnlineSimulation(CreateScheduler(SchedulerKind::kFcfs), tasks, config);
  EXPECT_EQ(result.admission_rejected, 1u);
  ASSERT_GE(result.grant_trace.size(), 4u);
  EXPECT_EQ(result.grant_trace[1], std::vector<TaskId>{9});
  EXPECT_EQ(result.grant_trace[3], std::vector<TaskId>{7});
  EXPECT_EQ(result.metrics.allocated(), 2u);
}

TEST(SimDriverOrderTest, TaskAfterTheLastCycleIsSubmittedAndEndsTheRun) {
  std::vector<Task> tasks = {FractionTask(1, 0.1, 1, 0.0), FractionTask(2, 0.1, 1, 5.0)};
  SimConfig config = OrderConfig({0.0});
  config.horizon_override = 2.0;  // Cycles at 0, 1 and 2.
  SimResult result = RunOnlineSimulation(CreateScheduler(SchedulerKind::kFcfs), tasks, config);
  EXPECT_EQ(result.cycles_run, 3u);
  EXPECT_EQ(result.metrics.submitted(), 2u);
  EXPECT_EQ(result.metrics.allocated(), 1u);
  EXPECT_EQ(result.pending_at_end, 1u);
}

TEST(CycleInstantsTest, ResumedSequenceContinuesTheUninterruptedOne) {
  SimConfig config;
  config.period = 0.1;
  double next = 0.0;
  std::vector<double> all = CycleInstants(config, 3.0, &next);
  double resumed_next = 0.0;
  std::vector<double> tail = CycleInstantsFrom(all[10], config.period, 3.0, &resumed_next);
  EXPECT_EQ(tail, std::vector<double>(all.begin() + 10, all.end()));
  EXPECT_EQ(resumed_next, next);
}

// An unbounded schedule aborts with a diagnostic instead of growing without end.
TEST(SimDriverDeathTest, CycleInstantsNeedAPositivePeriodAndAFiniteHorizon) {
  SimConfig config;
  double next = 0.0;
  config.period = 0.0;
  EXPECT_DEATH(CycleInstants(config, 10.0, &next), "period must be positive");
  config.period = -1.0;
  EXPECT_DEATH(CycleInstants(config, 10.0, &next), "period must be positive");
  config.period = std::numeric_limits<double>::quiet_NaN();
  EXPECT_DEATH(CycleInstants(config, 10.0, &next), "period must be positive");
  config.period = 1.0;
  EXPECT_DEATH(CycleInstants(config, std::numeric_limits<double>::infinity(), &next),
               "horizon must be finite");
  // 2^53 + 1 == 2^53 in double: the instant stops advancing.
  EXPECT_DEATH(CycleInstantsFrom(9007199254740992.0, 1.0, 9007199254740994.0, &next),
               "does not advance");
}

TEST(SimDriverDeathTest, InfiniteInputsAbort) {
  std::vector<Task> tasks = {FractionTask(0, 0.1, 1, 0.0)};
  SimConfig inf_override = SmallConfig();
  inf_override.horizon_override = std::numeric_limits<double>::infinity();
  EXPECT_DEATH(RunOnlineSimulation(CreateScheduler(SchedulerKind::kFcfs), tasks, inf_override),
               "horizon must be finite");
  SimConfig inf_block = SmallConfig();
  inf_block.block_arrival_times = {0.0, std::numeric_limits<double>::infinity()};
  EXPECT_DEATH(RunOnlineSimulation(CreateScheduler(SchedulerKind::kFcfs), tasks, inf_block),
               "finite and non-negative");
}

TEST(SimDriverDeathTest, CaptureWithoutCyclesAborts) {
  // A negative drain margin can put the horizon before t = 0: no cycle runs, so there is no
  // cycle to stop after.
  SimConfig config = SmallConfig();
  config.num_blocks = 1;
  config.drain_margin = -100.0;
  config.stop_after_cycles = 1;
  std::vector<Task> tasks = {FractionTask(0, 0.1, 1, 0.0)};
  EXPECT_DEATH(RunOnlineSimulation(CreateScheduler(SchedulerKind::kFcfs), tasks, config),
               "a capture needs a cycle");
}

TEST(SimDriverDeathTest, BadArrivalsAbortNamingTheTask) {
  for (double arrival : {std::numeric_limits<double>::infinity(),
                         std::numeric_limits<double>::quiet_NaN(), -1.0}) {
    std::vector<Task> tasks = {FractionTask(0, 0.1, 1, 0.0), FractionTask(42, 0.1, 1, arrival)};
    EXPECT_DEATH(RunOnlineSimulation(CreateScheduler(SchedulerKind::kFcfs), tasks, SmallConfig()),
                 "task 42 has arrival_time");
    // A resume checks the arrivals before its window drops the absorbed ones.
    SimConfig capture = SmallConfig();
    capture.stop_after_cycles = 2;
    std::vector<Task> good = {FractionTask(0, 0.1, 1, 0.0)};
    SimResult stopped = RunOnlineSimulation(CreateScheduler(SchedulerKind::kFcfs), good, capture);
    ASSERT_TRUE(stopped.snapshot.has_value());
    EXPECT_DEATH(ResumeOnlineSimulation(CreateScheduler(SchedulerKind::kFcfs), *stopped.snapshot,
                                        tasks, SmallConfig()),
                 "task 42 has arrival_time");
  }
}

}  // namespace
}  // namespace dpack
