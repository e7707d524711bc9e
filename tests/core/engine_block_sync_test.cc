// Unit tests for how the incremental scheduling engine tracks block state: its one
// version-tree drill-down reports exactly the blocks whose version moved, online arrivals
// join as new blocks rather than changes, pre-committed and restored managers are not
// re-reported, and the default scheduler runs on this engine.

#include "src/core/incremental_engine.h"

#include <gtest/gtest.h>

#include <utility>
#include <vector>

#include "src/block/block_manager.h"
#include "src/core/scheduler.h"

namespace dpack {
namespace {

constexpr double kEpsG = 10.0;
constexpr double kDeltaG = 1e-7;

AlphaGridPtr Grid() { return AlphaGrid::Default(); }

RdpCurve CapacityFraction(double fraction) {
  return BlockCapacityCurve(Grid(), kEpsG, kDeltaG).Scaled(fraction);
}

// A task too large to ever be granted: every block rejects it, so it is never scored and
// never committed, and the pending queue and the block state stay put between cycles unless
// the test dirties them.
Task OversizedTask(TaskId id, std::vector<BlockId> block_ids) {
  Task t(id, 1.0, CapacityFraction(2.0));
  t.blocks = std::move(block_ids);
  return t;
}

constexpr double kEta = 0.05;

class EngineBlockSyncTest : public testing::Test {
 protected:
  EngineBlockSyncTest() : blocks_(Grid(), kEpsG, kDeltaG) {
    for (int b = 0; b < 4; ++b) {
      blocks_.AddBlock(0.0, /*unlocked=*/true);
    }
  }
  BlockManager blocks_;
};

TEST_F(EngineBlockSyncTest, CommitRefreshesExactlyTheTouchedBlocks) {
  // The version-tree drill-down lists exactly the blocks whose version moved, wherever they
  // sit in the id space; a quiet cycle refreshes nothing.
  BlockManager many(Grid(), kEpsG, kDeltaG);
  for (int b = 0; b < 200; ++b) {
    many.AddBlock(0.0, /*unlocked=*/true);
  }
  IncrementalEngine context(GreedyMetric::kDpack, kEta);
  std::vector<Task> pending;
  for (TaskId id : {0, 99, 100, 101, 150}) {
    pending.push_back(OversizedTask(id, {id}));
  }
  context.ScheduleBatch(pending, many);
  EXPECT_EQ(context.stats().blocks_refreshed, 0u);  // Arrivals are new, not changed.
  EXPECT_EQ(context.stats().best_alpha_recomputes, 200u);

  many.block(100).Commit(CapacityFraction(0.01));
  many.block(101).Commit(CapacityFraction(0.01));
  context.ScheduleBatch(pending, many);
  EXPECT_EQ(context.stats().blocks_refreshed, 2u);
  EXPECT_EQ(context.stats().best_alpha_recomputes, 202u);
  EXPECT_EQ(context.stats().tasks_rescored, 0u);
  EXPECT_EQ(context.stats().tasks_reused, 3u);  // Tasks 100 and 101 are checked again.

  context.ScheduleBatch(pending, many);
  EXPECT_EQ(context.stats().blocks_refreshed, 2u);
  EXPECT_EQ(context.stats().best_alpha_recomputes, 202u);
  EXPECT_EQ(context.stats().tasks_reused, 3u + 5u);
}

TEST_F(EngineBlockSyncTest, ArrivalsAreAbsorbedIncrementally) {
  // Online block arrivals join the engine between cycles as new (dirty) blocks: only they
  // get best-alpha solves, none is reported as a refresh, and tasks on older blocks keep
  // their memos.
  BlockManager online(Grid(), kEpsG, kDeltaG);
  online.AddBlock(0.0, /*unlocked=*/true);
  IncrementalEngine context(GreedyMetric::kDpack, kEta);
  std::vector<Task> pending = {OversizedTask(0, {0})};
  context.ScheduleBatch(pending, online);
  EXPECT_EQ(context.stats().best_alpha_recomputes, 1u);

  online.AddBlock(1.0);
  online.AddBlock(2.0);
  pending.push_back(OversizedTask(1, {2}));
  context.ScheduleBatch(pending, online);
  EXPECT_EQ(context.stats().blocks_refreshed, 0u);
  EXPECT_EQ(context.stats().best_alpha_recomputes, 1u + 2u);
  EXPECT_EQ(context.stats().tasks_rescored, 0u);
  EXPECT_EQ(context.stats().tasks_reused, 1u);  // Only the new task is checked.
}

TEST_F(EngineBlockSyncTest, PreCommittedAndRestoredBlocksAreNotReportedChanged) {
  // A cold engine records each block at its current version, so a manager whose blocks
  // were committed before the engine first saw them — or rebuilt from a checkpoint — is not
  // refreshed, and a warm engine moved onto the restored copy keeps every memo.
  blocks_.block(1).Commit(CapacityFraction(0.01));
  blocks_.block(3).Commit(CapacityFraction(0.01));
  std::vector<Task> pending;
  for (TaskId i = 0; i < 4; ++i) {
    pending.push_back(OversizedTask(i, {i}));
  }
  IncrementalEngine warm(GreedyMetric::kArea, kEta);
  warm.ScheduleBatch(pending, blocks_);
  EXPECT_EQ(warm.stats().blocks_refreshed, 0u);

  std::vector<PrivacyBlock> states;
  for (BlockId j = 0; j < 4; ++j) {
    states.push_back(blocks_.block(j));
  }
  BlockManager restored =
      BlockManager::Restore(Grid(), kEpsG, kDeltaG, blocks_.epoch(), std::move(states));
  IncrementalEngine cold(GreedyMetric::kArea, kEta);
  cold.ScheduleBatch(pending, restored);
  EXPECT_EQ(cold.stats().blocks_refreshed, 0u);
  EXPECT_EQ(cold.stats().tasks_rescored, 0u);
  EXPECT_EQ(cold.stats().tasks_reused, 0u);

  warm.ScheduleBatch(pending, restored);
  EXPECT_EQ(warm.stats().blocks_refreshed, 0u);
  EXPECT_EQ(warm.stats().tasks_reused, 4u);
}

TEST_F(EngineBlockSyncTest, DefaultSchedulerRunsTheEngine) {
  // A default GreedyScheduler runs on the incremental engine, FCFS included (as a
  // pass-through: it never scores).
  BlockManager blocks(Grid(), kEpsG, kDeltaG);
  for (int b = 0; b < 5; ++b) {
    blocks.AddBlock(0.0, /*unlocked=*/true);
  }
  GreedyScheduler scheduler(GreedyMetric::kDpack);
  ASSERT_NE(scheduler.engine(), nullptr);
  const ScheduleContextStats& stats = scheduler.engine()->stats();
  std::vector<Task> pending;
  for (TaskId i = 0; i < 5; ++i) {
    pending.push_back(OversizedTask(i, {i}));
  }
  scheduler.ScheduleBatch(pending, blocks);
  EXPECT_EQ(stats.best_alpha_recomputes, 5u);
  blocks.block(2).Commit(CapacityFraction(0.01));
  scheduler.ScheduleBatch(pending, blocks);
  EXPECT_EQ(stats.blocks_refreshed, 1u);
  EXPECT_EQ(stats.best_alpha_recomputes, 6u);
  EXPECT_EQ(stats.tasks_rescored, 0u);
  EXPECT_EQ(stats.tasks_reused, 4u);  // Every task but block 2's.

  GreedyScheduler fcfs(GreedyMetric::kFcfs);
  EXPECT_NE(fcfs.engine(), nullptr);
}

}  // namespace
}  // namespace dpack
