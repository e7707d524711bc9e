// Unit tests for the incremental scheduling engine's state: which state changes dirty which
// blocks, which tasks are scored (only those feasible at the start of a cycle), which the
// rejection memo settles, and when the engine falls back to the recompute path.

#include "src/core/incremental_engine.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <limits>
#include <utility>
#include <vector>

#include "src/block/block_manager.h"
#include "src/common/rng.h"
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

class ScheduleContextTest : public testing::Test {
 protected:
  ScheduleContextTest() : blocks_(Grid(), kEpsG, kDeltaG) {
    for (int b = 0; b < 4; ++b) {
      blocks_.AddBlock(0.0, /*unlocked=*/true);
    }
  }
  BlockManager blocks_;
};

TEST_F(ScheduleContextTest, SteadyStateSettlesEveryRejectionByMemo) {
  for (GreedyMetric metric :
       {GreedyMetric::kDpack, GreedyMetric::kDpf, GreedyMetric::kArea}) {
    IncrementalEngine context(metric, kEta);
    std::vector<Task> pending;
    for (TaskId i = 0; i < 10; ++i) {
      pending.push_back(OversizedTask(i, {i % 4}));
    }
    // Every block rejects every task: nothing is scored, and each task gets a memo.
    EXPECT_TRUE(context.ScheduleBatch(pending, blocks_).empty());
    EXPECT_EQ(context.stats().tasks_rescored, 0u);
    EXPECT_EQ(context.stats().tasks_reused, 0u);

    // Nothing changed: the memos settle all ten tasks without a check.
    EXPECT_TRUE(context.ScheduleBatch(pending, blocks_).empty());
    EXPECT_EQ(context.stats().tasks_rescored, 0u);
    EXPECT_EQ(context.stats().tasks_reused, 10u);
    EXPECT_EQ(context.stats().blocks_refreshed, 0u);
  }
}

TEST_F(ScheduleContextTest, SteadyStateCyclesDoZeroMergeAllocations) {
  // The candidate and sort buffers persist across cycles and keep room for a whole batch:
  // after the first cycle, same-size batches must not allocate. merge_allocs counts their
  // capacity growth and is gated at zero per steady-state cycle in bench/baseline.json.
  // Every cycle grants a fresh batch of 80 small tasks, enough for any sort path.
  for (GreedyMetric metric :
       {GreedyMetric::kDpack, GreedyMetric::kDpf, GreedyMetric::kArea}) {
    IncrementalEngine context(metric, kEta);
    uint64_t warmup = 0;
    TaskId next_id = 0;
    for (int cycle = 0; cycle < 6; ++cycle) {
      std::vector<Task> pending;
      for (int i = 0; i < 80; ++i, ++next_id) {
        pending.push_back(Task(next_id, 1.0, CapacityFraction(0.001)));
        pending.back().blocks = {next_id % 4};
      }
      EXPECT_EQ(context.ScheduleBatch(pending, blocks_).size(), 80u);
      if (cycle == 0) {
        warmup = context.stats().merge_allocs;
        EXPECT_GT(warmup, 0u);
      }
      EXPECT_EQ(context.stats().merge_allocs, warmup)
          << "metric " << static_cast<int>(metric) << " cycle " << cycle;
    }
    EXPECT_EQ(context.stats().tasks_rescored, 6u * 80u);
  }
}

TEST_F(ScheduleContextTest, CommitRechecksOnlyTheTouchedBlocksTasks) {
  IncrementalEngine context(GreedyMetric::kArea, kEta);
  std::vector<Task> pending;
  for (TaskId i = 0; i < 8; ++i) {
    pending.push_back(OversizedTask(i, {i % 4}));  // Two tasks per block.
  }
  context.ScheduleBatch(pending, blocks_);

  // A commit to block 1 re-checks exactly its two tasks; the memos settle the other six.
  blocks_.block(1).Commit(CapacityFraction(0.01));
  context.ScheduleBatch(pending, blocks_);
  EXPECT_EQ(context.stats().blocks_refreshed, 1u);
  EXPECT_EQ(context.stats().tasks_rescored, 0u);
  EXPECT_EQ(context.stats().tasks_reused, 6u);
}

TEST_F(ScheduleContextTest, DpfMemosFollowTheRejectingBlock) {
  // The memo is metric-independent: DPF's scores never read consumption, but its tasks are
  // re-checked when their rejecting block changes all the same.
  IncrementalEngine context(GreedyMetric::kDpf, kEta);
  std::vector<Task> pending;
  for (TaskId i = 0; i < 6; ++i) {
    pending.push_back(OversizedTask(i, {i % 4}));
  }
  context.ScheduleBatch(pending, blocks_);
  blocks_.block(0).Commit(CapacityFraction(0.05));
  context.ScheduleBatch(pending, blocks_);
  EXPECT_EQ(context.stats().tasks_rescored, 0u);
  EXPECT_EQ(context.stats().tasks_reused, 4u);  // Tasks 0 and 4, on block 0, re-checked.
}

TEST_F(ScheduleContextTest, UnlockIncreaseRechecksTheTask) {
  BlockManager locked(Grid(), kEpsG, kDeltaG);
  locked.AddBlock(0.0);  // Starts locked.
  IncrementalEngine context(GreedyMetric::kArea, kEta);
  std::vector<Task> pending = {OversizedTask(0, {0})};

  locked.UpdateUnlocks(0.0, 1.0, 4);
  context.ScheduleBatch(pending, locked);
  EXPECT_EQ(context.stats().tasks_reused, 0u);

  locked.UpdateUnlocks(1.0, 1.0, 4);  // Unlocks another quarter: version bumps.
  context.ScheduleBatch(pending, locked);
  EXPECT_EQ(context.stats().tasks_reused, 0u);

  locked.UpdateUnlocks(1.0, 1.0, 4);  // No-op update: no version bump, the memo holds.
  context.ScheduleBatch(pending, locked);
  EXPECT_EQ(context.stats().tasks_reused, 1u);
  EXPECT_EQ(context.stats().tasks_rescored, 0u);
}

TEST_F(ScheduleContextTest, NewRequesterResolvesItsBlockUnderDpack) {
  // DPack's best alpha for a block depends on who requests it, so a new requester re-solves
  // the block's best alpha. The block's version does not move, so its peers' memos hold.
  IncrementalEngine context(GreedyMetric::kDpack, kEta);
  std::vector<Task> pending;
  pending.push_back(OversizedTask(0, {0}));
  pending.push_back(OversizedTask(1, {0}));
  pending.push_back(OversizedTask(2, {1}));
  context.ScheduleBatch(pending, blocks_);
  EXPECT_EQ(context.stats().tasks_rescored, 0u);
  uint64_t solved = context.stats().best_alpha_recomputes;

  pending.push_back(OversizedTask(3, {0}));  // New requester of block 0.
  context.ScheduleBatch(pending, blocks_);
  // Task 3 (new) checked; tasks 0, 1 (peers on block 0) and 2 (block 1) settled.
  EXPECT_EQ(context.stats().best_alpha_recomputes, solved + 1);
  EXPECT_EQ(context.stats().tasks_rescored, 0u);
  EXPECT_EQ(context.stats().tasks_reused, 3u);
}

// A demand of `fraction` of a fresh block's capacity at the orders in `fits`, and twice the
// capacity elsewhere, so the task fits a fresh block at exactly those orders.
Task FitsAtOrders(TaskId id, std::vector<BlockId> block_ids, std::vector<size_t> fits,
                  double fraction) {
  RdpCurve capacity = CapacityFraction(1.0);
  std::vector<double> eps;
  for (size_t a = 0; a < capacity.size(); ++a) {
    bool fit = std::find(fits.begin(), fits.end(), a) != fits.end();
    eps.push_back(std::max(capacity.epsilon(a), 1.0) * (fit ? fraction : 2.0));
  }
  Task t(id, 1.0, RdpCurve(Grid(), eps));
  t.blocks = std::move(block_ids);
  return t;
}

// The first two orders at which a fresh block has capacity.
std::pair<size_t, size_t> FirstTwoUsableOrders() {
  RdpCurve capacity = CapacityFraction(1.0);
  std::vector<size_t> usable;
  for (size_t a = 0; a < capacity.size() && usable.size() < 2; ++a) {
    if (capacity.epsilon(a) > 0.0) {
      usable.push_back(a);
    }
  }
  EXPECT_EQ(usable.size(), 2u);
  return {usable[0], usable[1]};
}

TEST_F(ScheduleContextTest, NewRequesterThatFlipsTheBestAlphaKeepsPeersMemos) {
  auto [x, y] = FirstTwoUsableOrders();
  // Block 3 is nearly exhausted, so no task here is ever granted.
  blocks_.block(3).Commit(CapacityFraction(0.99));
  IncrementalEngine context(GreedyMetric::kDpack, kEta);
  std::vector<Task> pending;
  // Tasks 0 and 1 fit block 0 at orders x and y: two each, so x (the first) is best.
  pending.push_back(FitsAtOrders(0, {0, 3}, {x, y}, 0.3));
  pending.push_back(FitsAtOrders(1, {0, 3}, {x, y}, 0.3));
  pending.push_back(OversizedTask(5, {1}));
  EXPECT_TRUE(context.ScheduleBatch(pending, blocks_).empty());
  EXPECT_EQ(context.stats().tasks_rescored, 0u);

  // Task 2 fits only at y: three fit at y, two at x, so block 0's best alpha moves to y.
  // Block 3 rejects tasks 0 and 1 and its version held, so their memos still settle them.
  pending.push_back(FitsAtOrders(2, {0, 3}, {y}, 0.3));
  uint64_t solved = context.stats().best_alpha_recomputes;
  EXPECT_TRUE(context.ScheduleBatch(pending, blocks_).empty());
  EXPECT_EQ(context.stats().best_alpha_recomputes, solved + 2);
  EXPECT_EQ(context.stats().tasks_rescored, 0u);
  EXPECT_EQ(context.stats().tasks_reused, 3u);  // Tasks 0, 1 and 5.
  EXPECT_EQ(context.stats().blocks_refreshed, 0u);
}

TEST_F(ScheduleContextTest, DepartureThatKeepsTheBestAlphaKeepsPeersMemos) {
  // A block whose membership changed but whose capacity and best alpha did not: its
  // remaining requesters keep their memos.
  auto [x, y] = FirstTwoUsableOrders();
  blocks_.block(3).Commit(CapacityFraction(0.99));
  IncrementalEngine context(GreedyMetric::kDpack, kEta);
  std::vector<Task> pending;
  // Three tasks fit block 0 at x and y, so x (the first) is best; nothing fits block 3.
  for (TaskId id = 0; id < 3; ++id) {
    pending.push_back(FitsAtOrders(id, {0, 3}, {x, y}, 0.3));
  }
  pending.push_back(OversizedTask(5, {1}));
  EXPECT_TRUE(context.ScheduleBatch(pending, blocks_).empty());
  uint64_t solved = context.stats().best_alpha_recomputes;
  EXPECT_EQ(context.stats().tasks_rescored, 0u);

  // Task 2 leaves: blocks 0 and 3 are re-solved, two still fit at x and y, x stays best.
  pending.erase(pending.begin() + 2);
  BlockManager reference = blocks_.Clone();
  std::vector<size_t> expected = RecomputeScheduleBatch(GreedyMetric::kDpack, kEta, pending,
                                                        reference);
  EXPECT_EQ(context.ScheduleBatch(pending, blocks_), expected);
  EXPECT_EQ(context.stats().best_alpha_recomputes, solved + 2);
  EXPECT_EQ(context.stats().blocks_refreshed, 0u);
  EXPECT_EQ(context.stats().tasks_rescored, 0u);
  EXPECT_EQ(context.stats().tasks_reused, 3u);  // Tasks 0 and 1 on block 0, task 5.
}

TEST_F(ScheduleContextTest, CapacityRefreshRechecksEvenWhenTheBestAlphaHolds) {
  IncrementalEngine context(GreedyMetric::kDpack, kEta);
  std::vector<Task> pending;
  pending.push_back(OversizedTask(0, {0}));
  pending.push_back(OversizedTask(1, {0}));
  pending.push_back(OversizedTask(2, {1}));
  context.ScheduleBatch(pending, blocks_);
  uint64_t solved = context.stats().best_alpha_recomputes;

  // Nothing fits block 0 before or after, so its best alpha holds; its version moved, so
  // its tasks are checked again.
  blocks_.block(0).Commit(CapacityFraction(0.01));
  context.ScheduleBatch(pending, blocks_);
  EXPECT_EQ(context.stats().blocks_refreshed, 1u);
  EXPECT_EQ(context.stats().best_alpha_recomputes, solved + 1);
  EXPECT_EQ(context.stats().tasks_rescored, 0u);
  EXPECT_EQ(context.stats().tasks_reused, 1u);
}

TEST_F(ScheduleContextTest, BlockThatLosesAllRequestersIsResolvedAndReadopted) {
  IncrementalEngine context(GreedyMetric::kDpack, kEta);
  std::vector<Task> pending;
  pending.push_back(OversizedTask(0, {0}));
  pending.push_back(OversizedTask(1, {0}));
  pending.push_back(OversizedTask(2, {1}));
  context.ScheduleBatch(pending, blocks_);
  uint64_t solved = context.stats().best_alpha_recomputes;

  // Block 0's requesters leave (evicted): its best alpha is re-solved with no requesters,
  // which may move it, but no live task reads it and task 2 keeps its memo.
  pending.erase(pending.begin(), pending.begin() + 2);
  context.ScheduleBatch(pending, blocks_);
  EXPECT_EQ(context.stats().best_alpha_recomputes, solved + 1);
  EXPECT_EQ(context.stats().tasks_rescored, 0u);
  EXPECT_EQ(context.stats().tasks_reused, 1u);

  // A new requester of block 0 is scored against the re-solved best alpha, and grants stay
  // the reference's.
  pending.push_back(OversizedTask(4, {0}));
  pending.back().demand = CapacityFraction(0.5);
  BlockManager reference = blocks_.Clone();
  std::vector<size_t> expected = RecomputeScheduleBatch(GreedyMetric::kDpack, kEta, pending,
                                                        reference);
  EXPECT_EQ(context.ScheduleBatch(pending, blocks_), expected);
  EXPECT_EQ(context.stats().tasks_rescored, 1u);
  EXPECT_EQ(context.stats().tasks_reused, 2u);
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

TEST_F(ScheduleContextTest, LateBlockResolutionMakesTheTaskACandidate) {
  IncrementalEngine context(GreedyMetric::kArea, kEta);
  std::vector<Task> pending;
  Task unresolved(0, 1.0, CapacityFraction(0.2));
  unresolved.num_recent_blocks = 2;  // blocks empty for now.
  pending.push_back(unresolved);
  EXPECT_TRUE(context.ScheduleBatch(pending, blocks_).empty());
  EXPECT_EQ(context.stats().tasks_rescored, 0u);  // Unresolved: neither checked nor scored.
  EXPECT_EQ(context.stats().tasks_reused, 0u);

  pending[0].blocks = {0, 1};  // Resolution changes the blocks signature.
  EXPECT_EQ(context.ScheduleBatch(pending, blocks_), (std::vector<size_t>{0}));
  EXPECT_EQ(context.stats().tasks_rescored, 1u);
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

  // The memos are gone with the rest of the state: both tasks are checked again.
  context.Invalidate();
  context.ScheduleBatch(pending, blocks_);
  EXPECT_EQ(context.stats().tasks_reused, 2u);
  EXPECT_EQ(context.stats().tasks_rescored, 0u);
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
  // considered, and its memo settles it (its block 1 untouched). Moved, not copied — the cycle
  // protocol compacts the queue by moving tasks, which keeps their block buffers stable.
  std::vector<Task> rest;
  rest.push_back(std::move(pending[1]));
  EXPECT_TRUE(context.ScheduleBatch(rest, blocks_).empty());
  EXPECT_EQ(context.stats().tasks_reused, 1u);
}

// Runs one engine cycle and checks its grants against the recompute path on a clone.
std::vector<size_t> CheckedCycle(IncrementalEngine& context, const std::vector<Task>& pending,
                                 BlockManager& blocks) {
  BlockManager reference = blocks.Clone();
  std::vector<size_t> expected = RecomputeScheduleBatch(context.metric(), kEta, pending,
                                                        reference);
  std::vector<size_t> granted = context.ScheduleBatch(pending, blocks);
  EXPECT_EQ(granted, expected);
  return granted;
}

TEST_F(ScheduleContextTest, WeightedBlockLosesAMiddleRequester) {
  // Weighted requesters take the FPTAS path, which reads each block's requester columns in
  // batch order. Block 3 is nearly exhausted, so nothing here is ever granted.
  auto [x, y] = FirstTwoUsableOrders();
  blocks_.block(3).Commit(CapacityFraction(0.99));
  IncrementalEngine context(GreedyMetric::kDpack, kEta);
  std::vector<Task> pending;
  pending.push_back(FitsAtOrders(0, {0, 3}, {x, y}, 0.3));
  pending.push_back(FitsAtOrders(1, {0, 3}, {x}, 0.3));
  pending.push_back(FitsAtOrders(2, {0, 3}, {x, y}, 0.3));
  pending.push_back(FitsAtOrders(3, {0, 3}, {y}, 0.3));
  pending.push_back(OversizedTask(4, {1}));
  pending[0].weight = 2.0;
  pending[1].weight = 5.0;
  // Block 0 packs weight 2 + 5 + 1 = 8 at x and 2 + 1 + 1 = 4 at y: x is its best alpha.
  CheckedCycle(context, pending, blocks_);
  EXPECT_EQ(context.stats().tasks_rescored, 0u);
  uint64_t solved = context.stats().best_alpha_recomputes;

  // Task 1 leaves from the middle of blocks 0 and 3. Block 0 now packs 3 at x and 4 at y,
  // so its best alpha moves to y; no block's version moved, so every memo holds.
  pending.erase(pending.begin() + 1);
  CheckedCycle(context, pending, blocks_);
  EXPECT_EQ(context.stats().best_alpha_recomputes, solved + 2);
  EXPECT_EQ(context.stats().blocks_refreshed, 0u);
  EXPECT_EQ(context.stats().tasks_rescored, 0u);
  EXPECT_EQ(context.stats().tasks_reused, 4u);
}

TEST_F(ScheduleContextTest, LateResolvedTaskJoinsItsBlocksInBatchOrder) {
  // Under DPack a task submitted before any block exists joins its blocks' requester columns
  // when it resolves, ahead of the later tasks already there.
  auto [x, y] = FirstTwoUsableOrders();
  BlockManager blocks(Grid(), kEpsG, kDeltaG);
  IncrementalEngine context(GreedyMetric::kDpack, kEta);
  std::vector<Task> pending;
  pending.push_back(FitsAtOrders(0, {}, {y}, 0.3));
  pending.back().num_recent_blocks = 2;
  CheckedCycle(context, pending, blocks);

  for (int b = 0; b < 3; ++b) {
    blocks.AddBlock(1.0, /*unlocked=*/true);
  }
  blocks.block(2).Commit(CapacityFraction(0.99));  // Nothing is granted on block 2.
  pending.push_back(FitsAtOrders(1, {1, 2}, {x, y}, 0.3));
  pending.push_back(FitsAtOrders(2, {1, 2}, {x, y}, 0.3));
  CheckedCycle(context, pending, blocks);
  uint64_t solved = context.stats().best_alpha_recomputes;

  // Task 0 resolves to blocks {1, 2}: block 1 now fits three at y and two at x, so its best
  // alpha moves. Block 2 rejects all three tasks, so none is ever scored.
  pending[0].blocks = blocks.MostRecentBlocks(2);
  ASSERT_EQ(pending[0].blocks, (std::vector<BlockId>{1, 2}));
  CheckedCycle(context, pending, blocks);
  EXPECT_EQ(context.stats().best_alpha_recomputes, solved + 2);
  EXPECT_EQ(context.stats().tasks_rescored, 0u);

  // Tasks 0 and 1 leave together; the columns must hold them in batch order for that.
  pending.erase(pending.begin(), pending.begin() + 2);
  CheckedCycle(context, pending, blocks);
  EXPECT_EQ(context.stats().best_alpha_recomputes, solved + 4);
  EXPECT_EQ(context.stats().full_recomputes, 0u);
}

TEST_F(ScheduleContextTest, PermutedBatchRebuildsTheRequesterColumns) {
  // A batch that reorders the previous one is not the stable order the events assume: the
  // columns are rebuilt, and exactly the blocks whose requester sequence changed re-solve.
  IncrementalEngine context(GreedyMetric::kDpack, kEta);
  std::vector<Task> pending;
  pending.push_back(OversizedTask(0, {0}));
  pending.push_back(OversizedTask(1, {0, 1}));
  pending.push_back(OversizedTask(2, {1}));
  pending.push_back(OversizedTask(3, {0}));
  pending.push_back(OversizedTask(4, {2}));
  CheckedCycle(context, pending, blocks_);
  uint64_t solved = context.stats().best_alpha_recomputes;

  // Blocks 0 and 1 see their requesters reversed; block 2's single requester stays as it
  // was. Nothing fits, so no task is scored and every memo holds.
  std::reverse(pending.begin(), pending.end());
  CheckedCycle(context, pending, blocks_);
  EXPECT_EQ(context.stats().best_alpha_recomputes, solved + 2);
  EXPECT_EQ(context.stats().tasks_rescored, 0u);
  EXPECT_EQ(context.stats().tasks_reused, 5u);

  // The rebuilt columns take the next cycle's events: task 1 leaves blocks 0 and 1.
  pending.erase(pending.begin() + 3);
  CheckedCycle(context, pending, blocks_);
  EXPECT_EQ(context.stats().best_alpha_recomputes, solved + 4);
  EXPECT_EQ(context.stats().tasks_reused, 5u + 4u);
  EXPECT_EQ(context.stats().full_recomputes, 0u);
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

// A task demanding `fraction` of a fresh block's capacity at every order, on `block_ids`.
Task FractionTask(TaskId id, std::vector<BlockId> block_ids, double fraction) {
  Task t(id, 1.0, CapacityFraction(fraction));
  t.blocks = std::move(block_ids);
  return t;
}

TEST_F(ScheduleContextTest, TasksInfeasibleAtTheStartAreNeverScored) {
  // Block 3 is nearly exhausted, so tasks 1 and 2 are rejected before any commit; the weight
  // would put task 1 first in every score order. Only tasks 0, 3 and 4 are scored, and the
  // grants are the reference's.
  blocks_.block(3).Commit(CapacityFraction(0.99));
  for (GreedyMetric metric :
       {GreedyMetric::kDpack, GreedyMetric::kDpf, GreedyMetric::kArea}) {
    BlockManager blocks = blocks_.Clone();
    IncrementalEngine context(metric, kEta);
    std::vector<Task> pending;
    pending.push_back(FractionTask(0, {0}, 0.3));
    pending.push_back(FractionTask(1, {0, 3}, 0.3));
    pending.back().weight = 100.0;
    pending.push_back(OversizedTask(2, {1}));
    pending.push_back(FractionTask(3, {1}, 0.5));
    pending.push_back(FractionTask(4, {2, 0}, 0.4));
    std::vector<size_t> granted = CheckedCycle(context, pending, blocks);
    EXPECT_EQ(granted.size(), 3u) << "metric " << static_cast<int>(metric);
    EXPECT_EQ(context.stats().tasks_rescored, 3u);
    EXPECT_EQ(context.stats().tasks_reused, 0u);
  }
}

TEST_F(ScheduleContextTest, CandidateThatAnEarlierGrantBlocksIsRejectedWithAMemo) {
  // Both tasks fit block 0 alone, so both are candidates; the first grant leaves no room for
  // the second, which the walk's re-check rejects.
  for (GreedyMetric metric :
       {GreedyMetric::kDpack, GreedyMetric::kDpf, GreedyMetric::kArea}) {
    BlockManager blocks = blocks_.Clone();
    IncrementalEngine context(metric, kEta);
    std::vector<Task> pending;
    pending.push_back(FractionTask(0, {0}, 0.6));
    pending.push_back(FractionTask(1, {0}, 0.6));
    std::vector<size_t> granted = CheckedCycle(context, pending, blocks);
    ASSERT_EQ(granted.size(), 1u);
    EXPECT_EQ(context.stats().tasks_rescored, 2u);

    // The loser's memo names block 0 at its version after the grant, which still holds.
    std::vector<Task> rest;
    rest.push_back(std::move(pending[1 - granted[0]]));
    EXPECT_TRUE(CheckedCycle(context, rest, blocks).empty());
    EXPECT_EQ(context.stats().tasks_rescored, 2u);
    EXPECT_EQ(context.stats().tasks_reused, 1u);
  }
}

TEST_F(ScheduleContextTest, MemoHoldsUntilItsOwnBlockChanges) {
  // The task asks block 1 first, which accepts it, then block 0, which has only a quarter
  // unlocked and rejects it: the memo names block 0.
  BlockManager blocks(Grid(), kEpsG, kDeltaG);
  blocks.AddBlock(0.0);
  blocks.AddBlock(0.0);
  blocks.block(0).SetUnlockedFraction(0.25);
  blocks.block(1).SetUnlockedFraction(0.5);
  for (GreedyMetric metric :
       {GreedyMetric::kDpack, GreedyMetric::kDpf, GreedyMetric::kArea}) {
    BlockManager state = blocks.Clone();
    IncrementalEngine context(metric, kEta);
    std::vector<Task> pending;
    pending.push_back(FractionTask(0, {1, 0}, 0.4));
    EXPECT_TRUE(CheckedCycle(context, pending, state).empty());
    EXPECT_EQ(context.stats().tasks_reused, 0u);

    // The task's other block commits, then unlocks: the memo settles the task both times.
    state.block(1).Commit(CapacityFraction(0.05));
    EXPECT_TRUE(CheckedCycle(context, pending, state).empty());
    state.block(1).SetUnlockedFraction(1.0);
    EXPECT_TRUE(CheckedCycle(context, pending, state).empty());
    EXPECT_EQ(context.stats().tasks_reused, 2u);
    EXPECT_EQ(context.stats().tasks_rescored, 0u);

    // Block 0 unlocks enough: the task is checked again, scored and granted.
    state.block(0).SetUnlockedFraction(0.75);
    EXPECT_EQ(CheckedCycle(context, pending, state), (std::vector<size_t>{0}));
    EXPECT_EQ(context.stats().tasks_reused, 2u);
    EXPECT_EQ(context.stats().tasks_rescored, 1u);
  }
}

TEST_F(ScheduleContextTest, ReResolvedTaskDropsItsMemo) {
  // The task is rejected by block 3, then re-resolved onto block 1, which accepts it. Block
  // 3's version never moves, so only dropping the memo lets the task be granted.
  blocks_.block(3).Commit(CapacityFraction(0.99));
  for (GreedyMetric metric :
       {GreedyMetric::kDpack, GreedyMetric::kDpf, GreedyMetric::kArea}) {
    BlockManager blocks = blocks_.Clone();
    IncrementalEngine context(metric, kEta);
    std::vector<Task> pending;
    pending.push_back(FractionTask(0, {3}, 0.3));
    pending.push_back(OversizedTask(1, {2}));
    EXPECT_TRUE(CheckedCycle(context, pending, blocks).empty());
    EXPECT_TRUE(CheckedCycle(context, pending, blocks).empty());
    EXPECT_EQ(context.stats().tasks_reused, 2u);

    pending[0].blocks = std::vector<BlockId>{1};  // A new block list in a new buffer.
    EXPECT_EQ(CheckedCycle(context, pending, blocks), (std::vector<size_t>{0}));
    EXPECT_EQ(context.stats().tasks_rescored, 1u);
    EXPECT_EQ(context.stats().tasks_reused, 3u);  // Task 1 only.
  }
}

TEST(BlockMembersTest, DeparturesKeepTheOtherMembersColumnsInOrder) {
  // Random departures from anywhere in the rows, so both sides of a gap get moved; the ids,
  // weights and every demand row must match a plain list of the survivors.
  BlockManager blocks(Grid(), kEpsG, kDeltaG);
  blocks.AddBlock(0.0, /*unlocked=*/true);
  BlockMembers members(blocks.block(0));
  Rng rng(24);
  std::vector<Task> tasks;
  std::vector<size_t> expected;  // Indices into tasks, in member order.
  std::vector<size_t> scratch;
  for (int round = 0; round < 200; ++round) {
    int arrivals = static_cast<int>(rng.UniformInt(0, 6));
    members.Reserve(static_cast<size_t>(arrivals));
    for (int a = 0; a < arrivals; ++a) {
      tasks.push_back(Task(static_cast<TaskId>(tasks.size()), 1.0 + rng.Uniform(),
                           CapacityFraction(rng.Uniform(0.01, 0.5))));
      members.Insert(expected.size(), tasks.back());
      expected.push_back(tasks.size() - 1);
    }
    std::vector<size_t> kept;
    for (size_t t : expected) {
      if (rng.Uniform() < 0.2) {
        members.leaving.push_back(tasks[t].id);
      } else {
        kept.push_back(t);
      }
    }
    if (!members.leaving.empty()) {
      members.RemoveLeaving(scratch);
    }
    expected = kept;
    ASSERT_EQ(members.ids().size(), expected.size()) << "round " << round;
    RequesterColumns columns = members.columns();
    for (size_t m = 0; m < expected.size(); ++m) {
      const Task& task = tasks[expected[m]];
      ASSERT_EQ(members.ids()[m], task.id) << "round " << round << " member " << m;
      ASSERT_EQ(columns.weights[m], task.weight);
      for (size_t k = 0; k < columns.orders.size(); ++k) {
        ASSERT_EQ(columns.demands[k * columns.stride + m],
                  task.demand.epsilon(columns.orders[k]));
      }
    }
  }
}

TEST(TaskCacheMapTest, BacklogChurnStaysWithinEightThousandSlots) {
  // The engine_backlog shape: about 2.3k live tasks, about 450 of them replaced per cycle.
  // The engine reserves a whole batch per cycle and purges once the dead entries reach half
  // the live ones, so the table never passes 8192 slots (64 B each).
  constexpr size_t kLive = 2300;
  constexpr size_t kTurnover = 450;
  TaskCacheMap cache;
  TaskId oldest = 0;
  for (uint64_t cycle = 0; cycle < 200; ++cycle) {
    cache.Reserve(kLive);
    for (TaskId id = oldest; id < oldest + static_cast<TaskId>(kLive); ++id) {
      cache.at(cache.FindOrInsert(id)).last_seen = cycle;
    }
    cache.PurgeDead(cycle, kLive);
    EXPECT_LE(cache.size(), kLive + kLive / 2 + 64);
    ASSERT_LE(cache.capacity(), 8192u) << "cycle " << cycle;
    oldest += static_cast<TaskId>(kTurnover);
  }
  EXPECT_EQ(cache.capacity(), 8192u);
  // Every live entry is still found after the purges' in-place deletions.
  for (TaskId id = oldest - static_cast<TaskId>(kTurnover);
       id < oldest - static_cast<TaskId>(kTurnover) + static_cast<TaskId>(kLive); ++id) {
    ASSERT_NE(cache.Find(id), TaskCacheMap::kNpos) << id;
  }
}

// SortHeapEntries must put any entries in exactly std::sort(HeapEntryBefore)'s order. Ids
// are unique, so that order is unique and the two are compared entry by entry.
std::vector<HeapEntry> RandomEntries(Rng& rng, size_t n, bool heavy_ties) {
  const double kInf = std::numeric_limits<double>::infinity();
  std::vector<double> pool = {0.0, -0.0, kInf, -kInf, 1.0, 0.5, -2.0, 1e-300, 3.25e10};
  std::vector<HeapEntry> entries;
  for (size_t i = 0; i < n; ++i) {
    HeapEntry entry;
    if (heavy_ties || rng.Uniform() < 0.2) {
      entry.score = pool[static_cast<size_t>(rng.UniformInt(0, 8))];
    } else {
      entry.score = rng.Uniform(-1.0, 1.0) * std::pow(10.0, rng.UniformInt(-5, 5));
    }
    entry.arrival = static_cast<double>(rng.UniformInt(0, heavy_ties ? 3 : 1000));
    entry.id = static_cast<TaskId>(i);
    entry.slot = i;
    entries.push_back(entry);
  }
  rng.Shuffle(entries);
  return entries;
}

TEST(SortHeapEntriesTest, MatchesStdSortUnderHeapEntryBefore) {
  Rng rng(2020);
  std::vector<HeapEntry> scratch;
  // Sizes on both sides of the small-input threshold.
  for (size_t n : {0, 1, 2, 7, 63, 64, 65, 200, 1500}) {
    for (bool heavy_ties : {false, true}) {
      for (int round = 0; round < 5; ++round) {
        std::vector<HeapEntry> entries = RandomEntries(rng, n, heavy_ties);
        std::vector<HeapEntry> expected = entries;
        std::sort(expected.begin(), expected.end(), HeapEntryBefore);
        SortHeapEntries(entries, scratch);
        ASSERT_EQ(entries.size(), expected.size());
        for (size_t i = 0; i < n; ++i) {
          ASSERT_EQ(entries[i].id, expected[i].id) << "n=" << n << " at " << i;
          EXPECT_EQ(entries[i].slot, expected[i].slot);
        }
      }
    }
  }
}

TEST(SortHeapEntriesTest, SignedZerosTieAndBreakByArrivalThenId) {
  // +0.0 and -0.0 are the same score: their entries interleave by (arrival, id), whatever
  // their sign bits.
  std::vector<HeapEntry> entries;
  for (TaskId id = 0; id < 100; ++id) {
    HeapEntry entry;
    entry.score = id % 2 == 0 ? 0.0 : -0.0;
    entry.arrival = static_cast<double>(99 - id);
    entry.id = id;
    entries.push_back(entry);
  }
  std::vector<HeapEntry> scratch;
  SortHeapEntries(entries, scratch);
  for (size_t i = 0; i < entries.size(); ++i) {
    EXPECT_EQ(entries[i].id, static_cast<TaskId>(99 - i));
  }
}

TEST(SortHeapEntriesTest, SteadyStateSortsDoNotAllocate) {
  Rng rng(7);
  std::vector<HeapEntry> entries = RandomEntries(rng, 500, false);
  std::vector<HeapEntry> scratch;
  SortHeapEntries(entries, scratch);
  for (int round = 0; round < 4; ++round) {
    std::vector<HeapEntry> next = RandomEntries(rng, 500, false);
    entries.assign(next.begin(), next.end());
    const HeapEntry* a = entries.data();
    const HeapEntry* b = scratch.data();
    SortHeapEntries(entries, scratch);
    // The two buffers may trade places, but no third one appears.
    EXPECT_TRUE((entries.data() == a && scratch.data() == b) ||
                (entries.data() == b && scratch.data() == a));
  }
}

}  // namespace
}  // namespace dpack
