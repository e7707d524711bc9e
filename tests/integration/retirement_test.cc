// Retirement property suite (ISSUE 6): block retirement — compacting provably-immutable
// (exhausted, fully unlocked) blocks out of the hot slab — must never change what the
// scheduler grants, must survive the checkpoint codec and Clone() byte-exactly, and must be
// a deterministic function of the commit/unlock history on every engine. The retirement_churn
// scenario drives all of it under load: capacity-fraction demands exhaust blocks mid-run, so
// the hot tier compacts while grants are still being made.

#include <gtest/gtest.h>

#include <memory>
#include <string>
#include <vector>

#include "src/block/block_manager.h"
#include "src/core/scheduler.h"
#include "src/orchestrator/checkpoint.h"
#include "src/sim/sim_driver.h"
#include "src/workload/curve_pool.h"
#include "src/workload/scenario.h"

namespace dpack {
namespace {

constexpr uint64_t kScenarioSeed = 1234;

AlphaGridPtr Grid() { return AlphaGrid::Default(); }

const CurvePool& Pool() {
  static const CurvePool pool(Grid(), BlockCapacityCurve(Grid(), 10.0, 1e-7));
  return pool;
}

std::unique_ptr<Scheduler> MakeScheduler(GreedyMetric metric, bool incremental,
                                         size_t num_shards = 1) {
  return std::make_unique<GreedyScheduler>(
      metric, GreedySchedulerOptions{
                  .eta = 0.05, .incremental = incremental, .num_shards = num_shards});
}

ScenarioWorkload ChurnWorkload() {
  ScenarioWorkload workload =
      GenerateScenario(Pool(), ScenarioByName("retirement_churn", kScenarioSeed));
  workload.sim.record_grant_trace = true;
  return workload;
}

size_t RetiredCount(const ClusterSnapshot& snapshot) {
  size_t retired = 0;
  for (const SnapshotBlockState& block : snapshot.blocks) {
    retired += block.retired ? 1 : 0;
  }
  return retired;
}

// A mid-run snapshot with both tiers populated (some blocks already retired, some still
// hot) — the interesting state for placement round-trip and determinism proofs. Scans
// forward from the earliest cycle; the scenario is tuned so such a cycle exists.
struct MidChurnState {
  ClusterSnapshot snapshot;
  size_t cycle = 0;
};

MidChurnState MidChurnSnapshot(const ScenarioWorkload& workload) {
  for (size_t k = 1; k < 200; ++k) {
    SimConfig sim = workload.sim;
    sim.stop_after_cycles = k;
    SimResult run = RunOnlineSimulation(MakeScheduler(GreedyMetric::kDpack, true),
                                        workload.tasks, sim);
    if (!run.snapshot.has_value()) {
      break;
    }
    size_t retired = RetiredCount(*run.snapshot);
    if (retired > 0 && retired < run.snapshot->blocks.size()) {
      return {std::move(*run.snapshot), k};
    }
    if (run.cycles_run < k) {
      break;  // The run ended before cycle k; no later checkpoint exists.
    }
  }
  ADD_FAILURE() << "retirement_churn never reached a mixed hot/retired state";
  return {};
}

TEST(RetirementTest, ChurnScenarioRetiresBlocksUnderLoad) {
  ScenarioWorkload workload = ChurnWorkload();
  SimResult run = RunOnlineSimulation(MakeScheduler(GreedyMetric::kDpack, true),
                                      workload.tasks, workload.sim);
  EXPECT_GT(run.metrics.allocated(), 0u);
  // The scenario must earn its name: blocks actually retire while the run still grants.
  EXPECT_GT(run.retired_at_end, 0u);
  EXPECT_LE(run.retired_at_end, run.blocks_created);
}

TEST(RetirementTest, PlacementRoundTripsThroughTheCodec) {
  ScenarioWorkload workload = ChurnWorkload();
  MidChurnState mid = MidChurnSnapshot(workload);
  ASSERT_FALSE(mid.snapshot.blocks.empty());

  SnapshotParseResult parsed = DecodeSnapshotBinary(EncodeSnapshotBinary(mid.snapshot));
  ASSERT_TRUE(parsed.ok) << parsed.error;
  ASSERT_EQ(parsed.snapshot.blocks.size(), mid.snapshot.blocks.size());
  for (size_t j = 0; j < mid.snapshot.blocks.size(); ++j) {
    EXPECT_EQ(parsed.snapshot.blocks[j].retired, mid.snapshot.blocks[j].retired) << j;
    EXPECT_EQ(parsed.snapshot.blocks[j].slot, mid.snapshot.blocks[j].slot) << j;
  }

  // Restoring rebuilds the exact two-tier layout, and Clone() preserves it again.
  BlockManager restored = RestoreBlockManager(parsed.snapshot);
  BlockManager clone = restored.Clone();
  EXPECT_EQ(restored.retired_count(), RetiredCount(mid.snapshot));
  for (size_t j = 0; j < mid.snapshot.blocks.size(); ++j) {
    BlockId id = static_cast<BlockId>(j);
    BlockPlacement p = restored.placement_of(id);
    EXPECT_EQ(p.retired, mid.snapshot.blocks[j].retired) << j;
    EXPECT_EQ(p.slot, mid.snapshot.blocks[j].slot) << j;
    BlockPlacement cp = clone.placement_of(id);
    EXPECT_EQ(cp.retired, p.retired) << j;
    EXPECT_EQ(cp.slot, p.slot) << j;
    EXPECT_EQ(restored.block(id).version(), mid.snapshot.blocks[j].version) << j;
    EXPECT_EQ(restored.block(id).consumed().epsilons(), mid.snapshot.blocks[j].consumed) << j;
  }
}

TEST(RetirementTest, TamperedPlacementIsRejected) {
  ScenarioWorkload workload = ChurnWorkload();
  MidChurnState mid = MidChurnSnapshot(workload);
  ASSERT_GT(RetiredCount(mid.snapshot), 0u);

  // Structural validation rejects inconsistent placements even when the checksum matches
  // (a hand-built snapshot). Byte-level tampering with the placement fields dies at the
  // checksum (checkpoint_test's EveryBinaryBitFlipIsRejected).
  ClusterSnapshot bad = mid.snapshot;
  size_t hot_a = SIZE_MAX;
  size_t hot_b = SIZE_MAX;
  size_t retired_j = SIZE_MAX;
  for (size_t j = 0; j < bad.blocks.size(); ++j) {
    if (bad.blocks[j].retired) {
      retired_j = j;
    } else if (hot_a == SIZE_MAX) {
      hot_a = j;
    } else if (hot_b == SIZE_MAX) {
      hot_b = j;
    }
  }
  ASSERT_NE(retired_j, SIZE_MAX);
  ASSERT_NE(hot_b, SIZE_MAX);

  ClusterSnapshot dup = mid.snapshot;
  dup.blocks[hot_a].slot = dup.blocks[hot_b].slot;
  EXPECT_NE(ValidateSnapshot(dup).find("duplicate block slot"), std::string::npos);

  ClusterSnapshot oob = mid.snapshot;
  oob.blocks[hot_a].slot = oob.blocks.size() + 100;
  EXPECT_NE(ValidateSnapshot(oob).find("slot out of range"), std::string::npos);

  ClusterSnapshot locked = mid.snapshot;
  locked.blocks[retired_j].unlocked_fraction = 0.5;
  EXPECT_NE(ValidateSnapshot(locked).find("fully unlocked"), std::string::npos);

  ClusterSnapshot fresh = mid.snapshot;
  fresh.blocks[retired_j].consumed.assign(fresh.blocks[retired_j].consumed.size(), 0.0);
  EXPECT_NE(ValidateSnapshot(fresh).find("must be exhausted"), std::string::npos);
}

TEST(RetirementTest, SweepIsDeterministicAcrossTheEngineMatrix) {
  ScenarioWorkload workload = ChurnWorkload();
  MidChurnState mid = MidChurnSnapshot(workload);
  ASSERT_FALSE(mid.snapshot.blocks.empty());

  struct EngineLeg {
    bool incremental;
    size_t shards;
  };
  const EngineLeg legs[] = {{false, 1}, {true, 2}, {true, 4}};
  for (const EngineLeg& leg : legs) {
    std::string label = "incremental=" + std::to_string(leg.incremental) +
                        " shards=" + std::to_string(leg.shards);
    SimConfig sim = workload.sim;
    sim.stop_after_cycles = mid.cycle;
    SimResult run = RunOnlineSimulation(
        MakeScheduler(GreedyMetric::kDpack, leg.incremental, leg.shards), workload.tasks,
        sim);
    ASSERT_TRUE(run.snapshot.has_value()) << label;
    ASSERT_EQ(run.snapshot->blocks.size(), mid.snapshot.blocks.size()) << label;
    for (size_t j = 0; j < mid.snapshot.blocks.size(); ++j) {
      EXPECT_EQ(run.snapshot->blocks[j].retired, mid.snapshot.blocks[j].retired)
          << label << " block " << j;
      EXPECT_EQ(run.snapshot->blocks[j].slot, mid.snapshot.blocks[j].slot)
          << label << " block " << j;
      EXPECT_EQ(run.snapshot->blocks[j].version, mid.snapshot.blocks[j].version)
          << label << " block " << j;
    }
  }
}

TEST(RetirementTest, KillAndResumePreservesRetirementState) {
  ScenarioWorkload workload = ChurnWorkload();
  SimResult reference = RunOnlineSimulation(MakeScheduler(GreedyMetric::kDpack, true),
                                            workload.tasks, workload.sim);
  ASSERT_GT(reference.retired_at_end, 0u);

  MidChurnState mid = MidChurnSnapshot(workload);
  SimConfig split = workload.sim;
  split.stop_after_cycles = mid.cycle;
  SimResult prefix = RunOnlineSimulation(MakeScheduler(GreedyMetric::kDpack, true),
                                         workload.tasks, split);
  ASSERT_TRUE(prefix.snapshot.has_value());

  // Ship through the binary wire format, resume, and require both the stitched grant
  // trace and the final retirement state to match the uninterrupted run.
  SnapshotParseResult parsed = DecodeSnapshotBinary(EncodeSnapshotBinary(*prefix.snapshot));
  ASSERT_TRUE(parsed.ok) << parsed.error;
  SimResult resumed = ResumeOnlineSimulation(MakeScheduler(GreedyMetric::kDpack, true),
                                             parsed.snapshot, workload.tasks, workload.sim);

  std::vector<std::vector<TaskId>> stitched = prefix.grant_trace;
  stitched.insert(stitched.end(), resumed.grant_trace.begin(), resumed.grant_trace.end());
  EXPECT_EQ(stitched, reference.grant_trace);
  EXPECT_EQ(resumed.retired_at_end, reference.retired_at_end);
}

}  // namespace
}  // namespace dpack
