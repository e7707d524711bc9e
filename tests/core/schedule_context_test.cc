// Unit tests for the incremental scheduling engine's cache behavior: which state changes
// dirty which blocks, which tasks get rescored, and when the engine falls back to the
// recompute path.

#include "src/core/incremental_engine.h"

#include <gtest/gtest.h>

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

// A task too large to ever be granted: scoring happens, commits never do, so the pending
// queue and the block state stay put between cycles unless the test dirties them.
Task OversizedTask(TaskId id, std::vector<BlockId> block_ids) {
  Task t(id, 1.0, CapacityFraction(2.0));
  t.blocks = std::move(block_ids);
  return t;
}

constexpr double kEta = 0.05;

class ScheduleContextTest : public testing::Test {
 protected:
  ScheduleContextTest() : blocks_(Grid(), kEpsG, kDeltaG) {
    for (int b = 0; b < 4; ++b) {
      blocks_.AddBlock(0.0, /*unlocked=*/true);
    }
  }
  BlockManager blocks_;
};

TEST_F(ScheduleContextTest, SteadyStateReusesEveryScore) {
  for (GreedyMetric metric :
       {GreedyMetric::kDpack, GreedyMetric::kDpf, GreedyMetric::kArea}) {
    IncrementalEngine context(metric, kEta);
    std::vector<Task> pending;
    for (TaskId i = 0; i < 10; ++i) {
      pending.push_back(OversizedTask(i, {i % 4}));
    }
    EXPECT_TRUE(context.ScheduleBatch(pending, blocks_).empty());
    EXPECT_EQ(context.stats().tasks_rescored, 10u);
    EXPECT_EQ(context.stats().tasks_reused, 0u);

    // Nothing changed: the second cycle reuses all ten scores.
    EXPECT_TRUE(context.ScheduleBatch(pending, blocks_).empty());
    EXPECT_EQ(context.stats().tasks_rescored, 10u);
    EXPECT_EQ(context.stats().tasks_reused, 10u);
    EXPECT_EQ(context.stats().blocks_refreshed, 0u);
  }
}

TEST_F(ScheduleContextTest, SteadyStateCyclesDoZeroMergeAllocations) {
  // The heap merges' scratch buffers persist across cycles: after warm-up, re-merging the
  // same-size batch must not allocate. merge_allocs counts scratch capacity growth and is
  // gated at zero per steady-state cycle in bench/baseline.json.
  for (GreedyMetric metric :
       {GreedyMetric::kDpack, GreedyMetric::kDpf, GreedyMetric::kArea}) {
    IncrementalEngine context(metric, kEta);
    std::vector<Task> pending;
    for (TaskId i = 0; i < 12; ++i) {
      pending.push_back(OversizedTask(i, {i % 4}));
    }
    // Two warm-up merges: the merge ping-pongs between two persistent buffers, so both
    // reach full capacity only after the second cycle.
    EXPECT_TRUE(context.ScheduleBatch(pending, blocks_).empty());
    blocks_.block(3).Commit(CapacityFraction(0.001));
    EXPECT_TRUE(context.ScheduleBatch(pending, blocks_).empty());
    uint64_t warmup = context.stats().merge_allocs;
    for (int cycle = 0; cycle < 5; ++cycle) {
      // Dirty a block each cycle so the merge actually re-runs with fresh entries.
      blocks_.block(cycle % 4).Commit(CapacityFraction(0.001));
      EXPECT_TRUE(context.ScheduleBatch(pending, blocks_).empty());
      EXPECT_EQ(context.stats().merge_allocs, warmup)
          << "metric " << static_cast<int>(metric) << " cycle " << cycle;
    }
  }
}

TEST_F(ScheduleContextTest, CommitDirtiesOnlyTouchedBlocksTasks) {
  IncrementalEngine context(GreedyMetric::kArea, kEta);
  std::vector<Task> pending;
  for (TaskId i = 0; i < 8; ++i) {
    pending.push_back(OversizedTask(i, {i % 4}));  // Two tasks per block.
  }
  context.ScheduleBatch(pending, blocks_);

  // A commit to block 1 must rescore exactly its two tasks.
  blocks_.block(1).Commit(CapacityFraction(0.01));
  context.ScheduleBatch(pending, blocks_);
  EXPECT_EQ(context.stats().blocks_refreshed, 1u);
  EXPECT_EQ(context.stats().tasks_rescored, 8u + 2u);
  EXPECT_EQ(context.stats().tasks_reused, 6u);
}

TEST_F(ScheduleContextTest, DpfScoresSurviveCommits) {
  // DPF normalizes against total capacity, so commits never invalidate its scores.
  IncrementalEngine context(GreedyMetric::kDpf, kEta);
  std::vector<Task> pending;
  for (TaskId i = 0; i < 6; ++i) {
    pending.push_back(OversizedTask(i, {i % 4}));
  }
  context.ScheduleBatch(pending, blocks_);
  blocks_.block(0).Commit(CapacityFraction(0.05));
  context.ScheduleBatch(pending, blocks_);
  EXPECT_EQ(context.stats().tasks_rescored, 6u);
  EXPECT_EQ(context.stats().tasks_reused, 6u);
}

TEST_F(ScheduleContextTest, UnlockIncreaseDirtiesBlock) {
  BlockManager locked(Grid(), kEpsG, kDeltaG);
  locked.AddBlock(0.0);  // Starts locked.
  IncrementalEngine context(GreedyMetric::kArea, kEta);
  std::vector<Task> pending = {OversizedTask(0, {0})};

  locked.UpdateUnlocks(0.0, 1.0, 4);
  context.ScheduleBatch(pending, locked);
  uint64_t scored_before = context.stats().tasks_rescored;

  locked.UpdateUnlocks(1.0, 1.0, 4);  // Unlocks another quarter: version bumps.
  context.ScheduleBatch(pending, locked);
  EXPECT_EQ(context.stats().tasks_rescored, scored_before + 1);

  locked.UpdateUnlocks(1.0, 1.0, 4);  // No-op update: no version bump, no rescore.
  context.ScheduleBatch(pending, locked);
  EXPECT_EQ(context.stats().tasks_rescored, scored_before + 1);
}

TEST_F(ScheduleContextTest, NewTaskRescoresItsBlocksPeersUnderDpack) {
  // DPack's best alpha for a block depends on who requests it: a new requester must rescore
  // the block's existing tasks too, but not tasks on untouched blocks.
  IncrementalEngine context(GreedyMetric::kDpack, kEta);
  std::vector<Task> pending;
  pending.push_back(OversizedTask(0, {0}));
  pending.push_back(OversizedTask(1, {0}));
  pending.push_back(OversizedTask(2, {1}));
  context.ScheduleBatch(pending, blocks_);
  EXPECT_EQ(context.stats().tasks_rescored, 3u);

  pending.push_back(OversizedTask(3, {0}));  // New requester of block 0.
  context.ScheduleBatch(pending, blocks_);
  // Tasks 0, 1 (peers on block 0) and 3 (new) rescored; task 2 on block 1 reused.
  EXPECT_EQ(context.stats().tasks_rescored, 3u + 3u);
  EXPECT_EQ(context.stats().tasks_reused, 1u);
}

TEST_F(ScheduleContextTest, BestAlphaRecomputedOnlyForDirtyBlocks) {
  IncrementalEngine context(GreedyMetric::kDpack, kEta);
  std::vector<Task> pending;
  for (TaskId i = 0; i < 4; ++i) {
    pending.push_back(OversizedTask(i, {i}));
  }
  context.ScheduleBatch(pending, blocks_);
  uint64_t first_cycle = context.stats().best_alpha_recomputes;
  EXPECT_EQ(first_cycle, 4u);  // All blocks new.

  blocks_.block(2).Commit(CapacityFraction(0.01));
  context.ScheduleBatch(pending, blocks_);
  EXPECT_EQ(context.stats().best_alpha_recomputes, first_cycle + 1);
}

TEST_F(ScheduleContextTest, LateBlockResolutionTriggersRescore) {
  IncrementalEngine context(GreedyMetric::kArea, kEta);
  std::vector<Task> pending;
  Task unresolved(0, 1.0, CapacityFraction(2.0));
  unresolved.num_recent_blocks = 2;  // blocks empty for now.
  pending.push_back(unresolved);
  context.ScheduleBatch(pending, blocks_);
  EXPECT_EQ(context.stats().tasks_rescored, 1u);

  pending[0].blocks = {0, 1};  // Resolution changes the blocks signature.
  context.ScheduleBatch(pending, blocks_);
  EXPECT_EQ(context.stats().tasks_rescored, 2u);
}

TEST_F(ScheduleContextTest, DuplicateTaskIdsFallBackToRecompute) {
  IncrementalEngine context(GreedyMetric::kDpack, kEta);
  std::vector<Task> pending;
  pending.push_back(OversizedTask(7, {0}));
  pending.push_back(OversizedTask(7, {1}));  // Same id.
  context.ScheduleBatch(pending, blocks_);
  EXPECT_EQ(context.stats().full_recomputes, 1u);
  EXPECT_EQ(context.stats().tasks_rescored, 0u);

  // The fallback still produces correct grants.
  std::vector<Task> grantable;
  grantable.push_back(OversizedTask(7, {0}));
  grantable.push_back(OversizedTask(7, {1}));
  grantable[0].demand = CapacityFraction(0.3);
  grantable[1].demand = CapacityFraction(0.3);
  std::vector<size_t> granted = context.ScheduleBatch(grantable, blocks_);
  EXPECT_EQ(granted.size(), 2u);
}

TEST_F(ScheduleContextTest, InvalidateRebuildsFromScratch) {
  IncrementalEngine context(GreedyMetric::kArea, kEta);
  std::vector<Task> pending = {OversizedTask(0, {0}), OversizedTask(1, {1})};
  context.ScheduleBatch(pending, blocks_);
  context.ScheduleBatch(pending, blocks_);
  EXPECT_EQ(context.stats().tasks_reused, 2u);

  context.Invalidate();
  context.ScheduleBatch(pending, blocks_);
  EXPECT_EQ(context.stats().tasks_rescored, 4u);  // 2 initial + 2 after invalidation.
}

TEST_F(ScheduleContextTest, GrantedTasksLeaveTheCache) {
  IncrementalEngine context(GreedyMetric::kArea, kEta);
  std::vector<Task> pending;
  Task small(0, 1.0, CapacityFraction(0.2));
  small.blocks = {0};
  pending.push_back(small);
  pending.push_back(OversizedTask(1, {1}));

  std::vector<size_t> granted = context.ScheduleBatch(pending, blocks_);
  ASSERT_EQ(granted.size(), 1u);
  EXPECT_EQ(pending[granted[0]].id, 0);

  // The grant's commit dirtied block 0, but the granted task is gone; only the survivor is
  // considered, and it is reused (its block 1 untouched). Moved, not copied — the cycle
  // protocol compacts the queue by moving tasks, which keeps their block buffers stable.
  std::vector<Task> rest;
  rest.push_back(std::move(pending[1]));
  EXPECT_TRUE(context.ScheduleBatch(rest, blocks_).empty());
  EXPECT_EQ(context.stats().tasks_reused, 1u);
}

TEST_F(ScheduleContextTest, VersionedManagersSurviveCloning) {
  // A context observing a clone of the manager it warmed up on stays exact: Clone preserves
  // the epoch and per-block versions, so unchanged state is not spuriously refreshed.
  IncrementalEngine context(GreedyMetric::kArea, kEta);
  std::vector<Task> pending = {OversizedTask(0, {0})};
  context.ScheduleBatch(pending, blocks_);

  BlockManager clone = blocks_.Clone();
  EXPECT_EQ(clone.epoch(), blocks_.epoch());
  EXPECT_EQ(clone.block(0).version(), blocks_.block(0).version());
  context.ScheduleBatch(pending, clone);
  EXPECT_EQ(context.stats().blocks_refreshed, 0u);
  EXPECT_EQ(context.stats().tasks_reused, 1u);
}

}  // namespace
}  // namespace dpack
