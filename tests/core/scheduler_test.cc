#include "src/core/scheduler.h"

#include <gtest/gtest.h>

#include "src/block/block_manager.h"
#include "src/common/rng.h"
#include "src/rdp/mechanisms.h"

namespace dpack {
namespace {

AlphaGridPtr Grid() { return AlphaGrid::Default(); }

Task CapacityFractionTask(TaskId id, std::vector<BlockId> block_ids, double fraction,
                          double weight = 1.0) {
  RdpCurve capacity = BlockCapacityCurve(Grid(), 10.0, 1e-7);
  Task t(id, weight, capacity.Scaled(fraction));
  t.blocks = std::move(block_ids);
  return t;
}

class SchedulerTest : public testing::Test {
 protected:
  SchedulerTest() : blocks_(Grid(), 10.0, 1e-7) {
    for (int b = 0; b < 2; ++b) {
      blocks_.AddBlock(0.0, /*unlocked=*/true);
    }
  }
  BlockManager blocks_;
};

TEST_F(SchedulerTest, EmptyBatchIsNoop) {
  for (SchedulerKind kind : {SchedulerKind::kDpack, SchedulerKind::kDpf, SchedulerKind::kFcfs,
                             SchedulerKind::kOptimal, SchedulerKind::kArea}) {
    std::vector<Task> none;
    EXPECT_TRUE(CreateScheduler(kind)->ScheduleBatch(none, blocks_).empty());
  }
}

TEST_F(SchedulerTest, FcfsGrantsInArrivalOrder) {
  std::vector<Task> tasks;
  Task late = CapacityFractionTask(1, {0}, 0.6);
  late.arrival_time = 5.0;
  Task early = CapacityFractionTask(2, {0}, 0.6);
  early.arrival_time = 1.0;
  tasks.push_back(late);
  tasks.push_back(early);
  GreedyScheduler fcfs(GreedyMetric::kFcfs);
  std::vector<size_t> granted = fcfs.ScheduleBatch(tasks, blocks_);
  ASSERT_EQ(granted.size(), 1u);  // 0.6 + 0.6 > 1.0 of budget: only one fits.
  EXPECT_EQ(tasks[granted[0]].id, 2);
}

TEST_F(SchedulerTest, FcfsUsesAlgOneLoopAndSkipsInfeasible) {
  // Every policy shares Alg. 1's allocation loop ("if CANRUN then run"): FCFS walks arrival
  // order and skips tasks whose filters reject, rather than blocking the queue head.
  std::vector<Task> tasks;
  Task a = CapacityFractionTask(1, {0}, 0.7);
  a.arrival_time = 0.0;
  Task b = CapacityFractionTask(2, {0}, 0.7);
  b.arrival_time = 1.0;
  Task c = CapacityFractionTask(3, {0}, 0.2);
  c.arrival_time = 2.0;
  tasks = {a, b, c};
  GreedyScheduler fcfs(GreedyMetric::kFcfs);
  std::vector<size_t> granted = fcfs.ScheduleBatch(tasks, blocks_);
  ASSERT_EQ(granted.size(), 2u);
  EXPECT_EQ(tasks[granted[0]].id, 1);
  EXPECT_EQ(tasks[granted[1]].id, 3);
}

TEST_F(SchedulerTest, FcfsNeverBlocksOnQueueHead) {
  // Pinned semantics (Alg. 1, "if CANRUN then run"): FCFS walks arrival order and *skips*
  // infeasible tasks rather than stopping at the queue head — head-of-line blocking is not
  // the implemented behavior, on either engine path. A stuck oversized head must not starve
  // feasible later arrivals on a different block.
  std::vector<Task> tasks;
  Task stuck_head = CapacityFractionTask(1, {0}, 2.0);  // Never fits.
  stuck_head.arrival_time = 0.0;
  Task later_a = CapacityFractionTask(2, {1}, 0.3);
  later_a.arrival_time = 1.0;
  Task later_b = CapacityFractionTask(3, {0}, 0.3);
  later_b.arrival_time = 2.0;
  tasks = {stuck_head, later_a, later_b};
  for (bool incremental : {true, false}) {
    BlockManager fresh(Grid(), 10.0, 1e-7);
    fresh.AddBlock(0.0, true);
    fresh.AddBlock(0.0, true);
    GreedyScheduler fcfs(GreedyMetric::kFcfs,
                         GreedySchedulerOptions{.incremental = incremental});
    std::vector<size_t> granted = fcfs.ScheduleBatch(tasks, fresh);
    ASSERT_EQ(granted.size(), 2u);
    EXPECT_EQ(tasks[granted[0]].id, 2);
    EXPECT_EQ(tasks[granted[1]].id, 3);
  }
}

TEST_F(SchedulerTest, RecomputeAndIncrementalGrantIdentically) {
  Rng rng(21);
  std::vector<Task> tasks;
  for (int i = 0; i < 40; ++i) {
    std::vector<BlockId> ids =
        rng.Bernoulli(0.4) ? std::vector<BlockId>{0, 1}
                           : std::vector<BlockId>{static_cast<BlockId>(rng.UniformInt(0, 1))};
    tasks.push_back(CapacityFractionTask(i, std::move(ids), rng.Uniform(0.05, 0.4),
                                         rng.Uniform(0.5, 3.0)));
  }
  for (GreedyMetric metric : {GreedyMetric::kDpack, GreedyMetric::kDpf, GreedyMetric::kArea,
                              GreedyMetric::kFcfs}) {
    BlockManager a(Grid(), 10.0, 1e-7);
    BlockManager b(Grid(), 10.0, 1e-7);
    for (int j = 0; j < 2; ++j) {
      a.AddBlock(0.0, true);
      b.AddBlock(0.0, true);
    }
    GreedyScheduler incremental(metric, GreedySchedulerOptions{.incremental = true});
    GreedyScheduler recompute(metric, GreedySchedulerOptions{.incremental = false});
    EXPECT_EQ(incremental.ScheduleBatch(tasks, a), recompute.ScheduleBatch(tasks, b));
  }
}

TEST_F(SchedulerTest, WeightsSteerDpackTowardUtility) {
  // One heavy task that fills a block vs two light ones that also fill it: DPack must pick
  // the weighted side.
  std::vector<Task> tasks;
  tasks.push_back(CapacityFractionTask(1, {0}, 0.9, /*weight=*/100.0));
  tasks.push_back(CapacityFractionTask(2, {0}, 0.45, /*weight=*/1.0));
  tasks.push_back(CapacityFractionTask(3, {0}, 0.45, /*weight=*/1.0));
  GreedyScheduler dpack(GreedyMetric::kDpack);
  std::vector<size_t> granted = dpack.ScheduleBatch(tasks, blocks_);
  ASSERT_EQ(granted.size(), 1u);
  EXPECT_EQ(tasks[granted[0]].id, 1);
}

TEST_F(SchedulerTest, GrantsNeverViolateFilters) {
  // Random soup of tasks; after scheduling, every block must still certify its guarantee at
  // some order (consumed <= capacity somewhere with positive capacity).
  Rng rng(3);
  std::vector<Task> tasks;
  for (int i = 0; i < 50; ++i) {
    double fraction = rng.Uniform(0.05, 0.8);
    std::vector<BlockId> ids;
    if (rng.Bernoulli(0.5)) {
      ids = {0};
    } else if (rng.Bernoulli(0.5)) {
      ids = {1};
    } else {
      ids = {0, 1};
    }
    tasks.push_back(CapacityFractionTask(i, std::move(ids), fraction));
  }
  GreedyScheduler dpack(GreedyMetric::kDpack);
  dpack.ScheduleBatch(tasks, blocks_);
  for (BlockId j = 0; j < 2; ++j) {
    const PrivacyBlock& block = blocks_.block(j);
    bool ok = false;
    for (size_t a = 0; a < Grid()->size(); ++a) {
      if (block.capacity().epsilon(a) > 0.0 &&
          block.consumed().epsilon(a) <= block.capacity().epsilon(a) + 1e-9) {
        ok = true;
      }
    }
    EXPECT_TRUE(ok);
  }
}

TEST_F(SchedulerTest, DeterministicAcrossRuns) {
  Rng rng(9);
  std::vector<Task> tasks;
  for (int i = 0; i < 30; ++i) {
    tasks.push_back(CapacityFractionTask(i, {static_cast<BlockId>(i % 2)},
                                         rng.Uniform(0.1, 0.5)));
  }
  GreedyScheduler a(GreedyMetric::kDpack);
  GreedyScheduler b(GreedyMetric::kDpack);
  BlockManager blocks2(Grid(), 10.0, 1e-7);
  blocks2.AddBlock(0.0, true);
  blocks2.AddBlock(0.0, true);
  EXPECT_EQ(a.ScheduleBatch(tasks, blocks_), b.ScheduleBatch(tasks, blocks2));
}

TEST_F(SchedulerTest, UnresolvedTasksAreSkipped) {
  std::vector<Task> tasks;
  Task unresolved(1, 1.0, BlockCapacityCurve(Grid(), 10.0, 1e-7).Scaled(0.1));
  unresolved.num_recent_blocks = 3;  // blocks left empty.
  tasks.push_back(unresolved);
  for (SchedulerKind kind : {SchedulerKind::kDpack, SchedulerKind::kDpf, SchedulerKind::kFcfs,
                             SchedulerKind::kOptimal}) {
    BlockManager fresh(Grid(), 10.0, 1e-7);
    fresh.AddBlock(0.0, true);
    EXPECT_TRUE(CreateScheduler(kind)->ScheduleBatch(tasks, fresh).empty());
  }
}

TEST_F(SchedulerTest, OptimalNeverWorseThanGreedies) {
  Rng rng(11);
  for (int trial = 0; trial < 5; ++trial) {
    std::vector<Task> tasks;
    for (int i = 0; i < 20; ++i) {
      std::vector<BlockId> ids = rng.Bernoulli(0.3)
                                     ? std::vector<BlockId>{0, 1}
                                     : std::vector<BlockId>{static_cast<BlockId>(
                                           rng.UniformInt(0, 1))};
      tasks.push_back(CapacityFractionTask(i, std::move(ids), rng.Uniform(0.1, 0.6)));
    }
    auto run = [&](SchedulerKind kind) {
      BlockManager fresh(Grid(), 10.0, 1e-7);
      fresh.AddBlock(0.0, true);
      fresh.AddBlock(0.0, true);
      return CreateScheduler(kind)->ScheduleBatch(tasks, fresh).size();
    };
    size_t optimal = run(SchedulerKind::kOptimal);
    EXPECT_GE(optimal, run(SchedulerKind::kDpack));
    EXPECT_GE(optimal, run(SchedulerKind::kDpf));
    EXPECT_GE(optimal, run(SchedulerKind::kFcfs));
  }
}

TEST(OptimalSchedulerTest, NeverBelowDpackWhenTheNodeBudgetStopsTheSearch) {
  // Two blocks with capacity 1 at both of two orders; every task requests both. A demands
  // (0.1, 1.0), B, C and D demand (1.0, 0.3). The solver's greedy incumbent takes A first
  // (smallest optimistic share) and then nothing else fits: weight 1. DPack prices every
  // task at the best order alpha2 and packs B, C and D: weight 3. One search node cannot
  // improve the incumbent, so only DPack's selection as a seed lifts Optimal to 3.
  AlphaGridPtr grid = AlphaGrid::Create({4.0, 8.0});
  BlockManager blocks(grid, 10.0, 1e-7);
  RdpCurve unit(grid, {1.0, 1.0});
  blocks.AddBlockWithCapacity(unit, 0.0, /*unlocked=*/true);
  blocks.AddBlockWithCapacity(unit, 0.0, /*unlocked=*/true);
  std::vector<Task> tasks;
  auto add_task = [&](TaskId id, double d1, double d2) {
    Task t(id, 1.0, RdpCurve(grid, {d1, d2}));
    t.blocks = {0, 1};
    tasks.push_back(t);
  };
  add_task(1, 0.1, 1.0);
  add_task(2, 1.0, 0.3);
  add_task(3, 1.0, 0.3);
  add_task(4, 1.0, 0.3);

  BlockManager dpack_blocks = blocks.Clone();
  EXPECT_EQ(CreateScheduler(SchedulerKind::kDpack)->ScheduleBatch(tasks, dpack_blocks).size(),
            3u);
  OptimalScheduler optimal(PkOptions{.max_nodes = 1});
  EXPECT_EQ(optimal.ScheduleBatch(tasks, blocks).size(), 3u);
  EXPECT_FALSE(optimal.last_solve_optimal());
}

TEST_F(SchedulerTest, SchedulerNamesAndFactory) {
  EXPECT_EQ(CreateScheduler(SchedulerKind::kDpack)->name(), "DPack");
  EXPECT_EQ(CreateScheduler(SchedulerKind::kDpf)->name(), "DPF");
  EXPECT_EQ(CreateScheduler(SchedulerKind::kArea)->name(), "Area");
  EXPECT_EQ(CreateScheduler(SchedulerKind::kFcfs)->name(), "FCFS");
  EXPECT_EQ(CreateScheduler(SchedulerKind::kOptimal)->name(), "Optimal");
  EXPECT_EQ(SchedulerKindName(SchedulerKind::kDpack), "DPack");
}

TEST_F(SchedulerTest, MechanismDemandsScheduleEndToEnd) {
  // Realistic curves, not capacity multiples: a DP-SGD training and several statistics.
  std::vector<Task> tasks;
  RdpCurve training = SubsampledGaussianCurve(Grid(), 1.0, 0.01).Repeat(500);
  Task big(0, 1.0, training);
  big.blocks = {0, 1};
  tasks.push_back(big);
  for (int i = 1; i <= 6; ++i) {
    Task stat(i, 1.0, LaplaceCurve(Grid(), 20.0));
    stat.blocks = {static_cast<BlockId>(i % 2)};
    tasks.push_back(stat);
  }
  GreedyScheduler dpack(GreedyMetric::kDpack);
  std::vector<size_t> granted = dpack.ScheduleBatch(tasks, blocks_);
  EXPECT_GT(granted.size(), 0u);
}

}  // namespace
}  // namespace dpack
