#include "src/core/online_scheduler.h"

#include <gtest/gtest.h>

#include <vector>

#include "src/rdp/rdp_curve.h"

namespace dpack {
namespace {

AlphaGridPtr Grid() { return AlphaGrid::Default(); }

Task FractionTask(TaskId id, double fraction, size_t recent_blocks, double arrival) {
  RdpCurve capacity = BlockCapacityCurve(Grid(), 10.0, 1e-7);
  Task t(id, 1.0, capacity.Scaled(fraction));
  t.num_recent_blocks = recent_blocks;
  t.arrival_time = arrival;
  return t;
}

class OnlineSchedulerTest : public testing::Test {
 protected:
  OnlineSchedulerTest() : blocks_(Grid(), 10.0, 1e-7) {}

  OnlineScheduler MakeOnline(int64_t unlock_steps, double period = 1.0) {
    OnlineSchedulerConfig config;
    config.period = period;
    config.unlock_steps = unlock_steps;
    return OnlineScheduler(CreateScheduler(SchedulerKind::kDpack), &blocks_, config);
  }

  BlockManager blocks_;
};

TEST_F(OnlineSchedulerTest, ResolvesMostRecentBlocksAtSubmit) {
  blocks_.AddBlock(0.0);
  blocks_.AddBlock(1.0);
  blocks_.AddBlock(2.0);
  OnlineScheduler online = MakeOnline(1);
  online.Submit(FractionTask(1, 0.1, 2, 2.0));
  EXPECT_EQ(online.pending_count(), 1u);
  size_t granted = online.RunCycle(2.0);
  EXPECT_EQ(granted, 1u);
  // The two most recent blocks (1, 2) were charged; block 0 untouched.
  EXPECT_TRUE(blocks_.block(0).consumed().IsZero());
  EXPECT_FALSE(blocks_.block(1).consumed().IsZero());
  EXPECT_FALSE(blocks_.block(2).consumed().IsZero());
}

TEST_F(OnlineSchedulerTest, DeferredResolutionWhenNoBlocksYet) {
  OnlineScheduler online = MakeOnline(1);
  online.Submit(FractionTask(1, 0.1, 1, 0.0));
  EXPECT_EQ(online.RunCycle(0.0), 0u);  // No blocks: cannot run.
  blocks_.AddBlock(1.0);
  EXPECT_EQ(online.RunCycle(1.0), 1u);  // Resolved against the new block.
}

TEST_F(OnlineSchedulerTest, UnlockingGatesGrants) {
  blocks_.AddBlock(0.0);
  OnlineScheduler online = MakeOnline(/*unlock_steps=*/10);
  // 30% of the budget needs 3 unlock steps.
  online.Submit(FractionTask(1, 0.3, 1, 0.0));
  EXPECT_EQ(online.RunCycle(0.0), 0u);  // 10% unlocked.
  EXPECT_EQ(online.RunCycle(1.0), 0u);  // 20%.
  EXPECT_EQ(online.RunCycle(2.0), 1u);  // 30%.
}

TEST_F(OnlineSchedulerTest, UnusedUnlockedBudgetCarriesOver) {
  blocks_.AddBlock(0.0);
  OnlineScheduler online = MakeOnline(/*unlock_steps=*/4);
  // Nothing pending for two cycles; then a 50% task arrives and runs immediately because
  // 2/4 of the budget is already unlocked.
  online.RunCycle(0.0);
  online.RunCycle(1.0);
  online.Submit(FractionTask(1, 0.5, 1, 1.5));
  EXPECT_EQ(online.RunCycle(2.0), 1u);  // 3 steps unlocked = 75% >= 50%.
}

TEST_F(OnlineSchedulerTest, TimeoutEvictsWaitingTasks) {
  blocks_.AddBlock(0.0);
  OnlineScheduler online = MakeOnline(/*unlock_steps=*/100);
  Task big = FractionTask(1, 0.9, 1, 0.0);
  big.timeout = 2.0;
  online.Submit(std::move(big));
  online.RunCycle(0.0);
  online.RunCycle(1.0);
  EXPECT_EQ(online.pending_count(), 1u);
  online.RunCycle(3.0);  // Waited 3 > timeout 2: evicted.
  EXPECT_EQ(online.pending_count(), 0u);
  EXPECT_EQ(online.metrics().evicted(), 1u);
  EXPECT_EQ(online.metrics().allocated(), 0u);
}

TEST_F(OnlineSchedulerTest, MetricsTrackDelaysInVirtualTime) {
  blocks_.AddBlock(0.0);
  OnlineScheduler online = MakeOnline(/*unlock_steps=*/10);
  online.Submit(FractionTask(1, 0.3, 1, 0.0));
  online.RunCycle(0.0);
  online.RunCycle(1.0);
  online.RunCycle(2.0);  // Granted here: delay 2.
  ASSERT_EQ(online.metrics().allocated(), 1u);
  EXPECT_DOUBLE_EQ(online.metrics().delays().Quantile(0.5), 2.0);
}

TEST_F(OnlineSchedulerTest, PendingTasksRetryAcrossCycles) {
  blocks_.AddBlock(0.0);
  OnlineScheduler online = MakeOnline(/*unlock_steps=*/2);
  online.Submit(FractionTask(1, 0.6, 1, 0.0));
  online.Submit(FractionTask(2, 0.6, 1, 0.0));
  EXPECT_EQ(online.RunCycle(0.0), 0u);   // 50% unlocked: neither fits.
  EXPECT_EQ(online.RunCycle(1.0), 1u);   // 100%: one fits, the other must wait forever.
  EXPECT_EQ(online.pending_count(), 1u);
  EXPECT_EQ(online.RunCycle(2.0), 0u);
  EXPECT_EQ(online.metrics().allocated(), 1u);
  EXPECT_EQ(online.metrics().submitted(), 2u);
}

TEST_F(OnlineSchedulerTest, GrantsCompactTheQueueInArrivalOrderAndKeepCachedScores) {
  blocks_.AddBlock(0.0);
  blocks_.AddBlock(0.0);
  OnlineScheduler online = MakeOnline(/*unlock_steps=*/1);
  // Tasks 2 and 4 fit block 1; tasks 1, 3 and 5 request twice block 0's capacity.
  for (TaskId id = 1; id <= 5; ++id) {
    Task task = FractionTask(id, id % 2 == 0 ? 0.1 : 2.0, 0, 0.0);
    task.blocks = {id % 2 == 0 ? BlockId{1} : BlockId{0}};
    online.Submit(std::move(task));
  }
  EXPECT_EQ(online.RunCycle(0.0), 2u);
  std::vector<TaskId> survivors;
  for (const Task& task : online.pending()) {
    survivors.push_back(task.id);
  }
  EXPECT_EQ(survivors, (std::vector<TaskId>{1, 3, 5}));

  // Block 0 did not change, so the survivors' rejection memos hold. The engine trusts a
  // memo only if the task's block buffer is the one it checked, so three memo hits show the
  // buffers moved with the tasks.
  ASSERT_NE(online.context_stats(), nullptr);
  ScheduleContextStats before = *online.context_stats();
  EXPECT_EQ(online.RunCycle(1.0), 0u);
  ScheduleContextStats cycle = online.context_stats()->Delta(before);
  EXPECT_EQ(cycle.tasks_reused, 3u);
  EXPECT_EQ(cycle.tasks_rescored, 0u);
}

TEST_F(OnlineSchedulerTest, FairShareDefaultsToUnlockSteps) {
  OnlineSchedulerConfig config;
  config.unlock_steps = 25;
  OnlineScheduler online(CreateScheduler(SchedulerKind::kDpf), &blocks_, config);
  EXPECT_EQ(online.config().fair_share_n, 25);
}

}  // namespace
}  // namespace dpack
