// Degenerate-configuration coverage for the incremental engine: tiny block and task
// populations, empty batches, block-less managers and out-of-range block ids were
// previously only hit incidentally by the randomized differential traces. These tests pin
// them directly: every shape must grant exactly what the recompute reference grants and
// leave the engines reusable for later, larger cycles, and a bad block id must stop the
// engine with a check failure, never a stray write.

#include <gtest/gtest.h>

#include <memory>
#include <string>
#include <vector>

#include "src/block/block_manager.h"
#include "src/core/online_scheduler.h"
#include "src/core/scheduler.h"
#include "src/rdp/rdp_curve.h"

namespace dpack {
namespace {

constexpr double kEpsG = 10.0;
constexpr double kDeltaG = 1e-7;

AlphaGridPtr Grid() { return AlphaGrid::Default(); }

Task FractionTask(TaskId id, double fraction, std::vector<BlockId> blocks) {
  RdpCurve capacity = BlockCapacityCurve(Grid(), kEpsG, kDeltaG);
  Task t(id, 1.0, capacity.Scaled(fraction));
  t.blocks = std::move(blocks);
  return t;
}

std::string MetricName(const testing::TestParamInfo<GreedyMetric>& param_info) {
  switch (param_info.param) {
    case GreedyMetric::kDpack:
      return "DPack";
    case GreedyMetric::kDpf:
      return "DPF";
    case GreedyMetric::kArea:
      return "Area";
    case GreedyMetric::kFcfs:
      return "FCFS";
  }
  return "unknown";
}

class DegenerateConfigTest : public testing::TestWithParam<GreedyMetric> {};

TEST_P(DegenerateConfigTest, TinyBlockAndTaskPopulations) {
  // 2 blocks and 1-2 tasks per cycle must merge cleanly into the reference grant order,
  // cycle after cycle.
  GreedyScheduler engine(GetParam(), GreedySchedulerOptions{.eta = 0.05, .incremental = true});
  GreedyScheduler reference(GetParam(),
                            GreedySchedulerOptions{.eta = 0.05, .incremental = false});
  BlockManager engine_blocks(Grid(), kEpsG, kDeltaG);
  BlockManager reference_blocks(Grid(), kEpsG, kDeltaG);
  for (int b = 0; b < 2; ++b) {
    engine_blocks.AddBlock(0.0, /*unlocked=*/true);
    reference_blocks.AddBlock(0.0, /*unlocked=*/true);
  }
  for (int cycle = 0; cycle < 4; ++cycle) {
    std::vector<Task> pending;
    pending.push_back(FractionTask(cycle * 10, 0.2, {0, 1}));
    if (cycle % 2 == 0) {
      pending.push_back(FractionTask(cycle * 10 + 1, 0.3, {1}));
    }
    std::vector<size_t> got = engine.ScheduleBatch(pending, engine_blocks);
    std::vector<size_t> want = reference.ScheduleBatch(pending, reference_blocks);
    ASSERT_EQ(got, want) << "cycle=" << cycle;
  }
}

TEST_P(DegenerateConfigTest, EmptyBatchesAreNoOpsAndEnginesStayLive) {
  GreedyScheduler engine(GetParam(), GreedySchedulerOptions{.eta = 0.05, .incremental = true});
  BlockManager blocks(Grid(), kEpsG, kDeltaG);
  blocks.AddBlock(0.0, /*unlocked=*/true);
  // Several consecutive empty cycles, then a real one: the engine must neither crash on
  // zero pending tasks nor corrupt its caches for the later batch.
  for (int cycle = 0; cycle < 3; ++cycle) {
    EXPECT_TRUE(engine.ScheduleBatch({}, blocks).empty());
  }
  std::vector<Task> pending;
  pending.push_back(FractionTask(1, 0.1, {0}));
  EXPECT_EQ(engine.ScheduleBatch(pending, blocks), (std::vector<size_t>{0}));
}

TEST_P(DegenerateConfigTest, ZeroBlocksGrantsNothing) {
  // A manager with no blocks at all: tasks with unresolved block requests are skipped,
  // nothing is granted, and the engine survives blocks arriving later.
  GreedyScheduler engine(GetParam(), GreedySchedulerOptions{.eta = 0.05, .incremental = true});
  BlockManager blocks(Grid(), kEpsG, kDeltaG);
  std::vector<Task> pending;
  RdpCurve capacity = BlockCapacityCurve(Grid(), kEpsG, kDeltaG);
  Task unresolved(1, 1.0, capacity.Scaled(0.2));
  unresolved.num_recent_blocks = 2;  // Unresolved: blocks stays empty.
  pending.push_back(std::move(unresolved));
  EXPECT_TRUE(engine.ScheduleBatch(pending, blocks).empty());

  // Blocks arrive; the same engine (caches warm on an empty id space) now grants.
  blocks.AddBlock(0.0, /*unlocked=*/true);
  blocks.AddBlock(0.0, /*unlocked=*/true);
  pending[0].blocks = blocks.MostRecentBlocks(2);
  EXPECT_EQ(engine.ScheduleBatch(pending, blocks), (std::vector<size_t>{0}));
}

TEST_P(DegenerateConfigTest, OnlineDriverWithZeroBlockManagerCycles) {
  // The full online driver over a block-less manager: cycles run, nothing unlocks, tasks
  // wait (and can time out) without any grant — and the system recovers once blocks exist.
  BlockManager blocks(Grid(), kEpsG, kDeltaG);
  OnlineSchedulerConfig config;
  config.period = 1.0;
  config.unlock_steps = 2;
  OnlineScheduler online(
      std::make_unique<GreedyScheduler>(
          GetParam(), GreedySchedulerOptions{.eta = 0.05, .incremental = true}),
      &blocks, config);
  RdpCurve capacity = BlockCapacityCurve(Grid(), kEpsG, kDeltaG);
  Task task(1, 1.0, capacity.Scaled(0.1));
  task.num_recent_blocks = 1;
  online.Submit(std::move(task));
  EXPECT_EQ(online.RunCycle(0.0), 0u);
  EXPECT_EQ(online.RunCycle(1.0), 0u);
  EXPECT_EQ(online.pending_count(), 1u);
  blocks.AddBlock(2.0);
  EXPECT_EQ(online.RunCycle(2.0), 1u);
  EXPECT_EQ(online.pending_count(), 0u);
}

INSTANTIATE_TEST_SUITE_P(AllMetrics, DegenerateConfigTest,
                         testing::Values(GreedyMetric::kDpack, GreedyMetric::kDpf,
                                         GreedyMetric::kArea, GreedyMetric::kFcfs),
                         MetricName);

// A task naming a block the manager does not have (past the end, or negative) stops every
// scored metric's engine with the cycle's block-id DPACK_CHECK, which runs before any
// id-indexed write (a stray write could crash, or corrupt the engine's state silently).
class OutOfRangeBlockIdDeathTest : public testing::TestWithParam<GreedyMetric> {
 protected:
  void ExpectCheckFailure(BlockId bad_id) {
    GreedyScheduler engine(GetParam(),
                           GreedySchedulerOptions{.eta = 0.05, .incremental = true});
    BlockManager blocks(Grid(), kEpsG, kDeltaG);
    blocks.AddBlock(0.0, /*unlocked=*/true);
    blocks.AddBlock(0.0, /*unlocked=*/true);
    std::vector<Task> pending;
    pending.push_back(FractionTask(1, 0.1, {0, bad_id}));
    EXPECT_DEATH(engine.ScheduleBatch(pending, blocks),
                 "DPACK_CHECK failed.*task 1 requests block " + std::to_string(bad_id) +
                     " of 2");
  }
};

TEST_P(OutOfRangeBlockIdDeathTest, IdPastTheEnd) { ExpectCheckFailure(5000); }

TEST_P(OutOfRangeBlockIdDeathTest, NegativeId) { ExpectCheckFailure(-1); }

INSTANTIATE_TEST_SUITE_P(ScoredMetrics, OutOfRangeBlockIdDeathTest,
                         testing::Values(GreedyMetric::kDpack, GreedyMetric::kDpf,
                                         GreedyMetric::kArea),
                         MetricName);

}  // namespace
}  // namespace dpack
