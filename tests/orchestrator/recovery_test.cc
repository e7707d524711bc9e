// Crash–restart recovery proofs (ISSUE 4): checkpointing a run at cycle k, restoring from
// the serialized snapshot, and running to completion must produce byte-identical grant
// sequences and deterministic metrics to the uninterrupted run — for every k, for shard
// counts {1, 2, 4}, and for mid-submission-drain kill points. The suite runs under the
// TSan CI leg (the sharded engine's worker pool runs on every resumed run) and the
// ASan/UBSan leg.

#include <gtest/gtest.h>

#include <memory>
#include <vector>

#include "src/common/rng.h"
#include "src/core/scheduler.h"
#include "src/orchestrator/checkpoint.h"
#include "src/orchestrator/cluster_orchestrator.h"
#include "src/sim/sim_driver.h"
#include "src/workload/curve_pool.h"
#include "src/workload/microbenchmark.h"

namespace dpack {
namespace {

constexpr double kEpsG = 10.0;
constexpr double kDeltaG = 1e-7;

AlphaGridPtr Grid() { return AlphaGrid::Default(); }

struct RecoveryWorkload {
  std::vector<Task> tasks;
  SimConfig config;
};

// A contended online workload: more demand than the unlocking stream admits, so queues
// persist across cycles, grants trickle, and some tasks time out — every state the
// snapshot must carry. `weighted` drives the FPTAS best-alpha path for DPack.
RecoveryWorkload MakeWorkload(uint64_t seed, bool weighted) {
  RecoveryWorkload w;
  w.config.num_blocks = 8;
  w.config.period = 1.0;
  w.config.unlock_steps = 6;
  w.config.horizon_override = 18.0;  // 19 cycles at t = 0..18.
  w.config.record_grant_trace = true;

  Rng rng(seed);
  RdpCurve capacity = BlockCapacityCurve(Grid(), kEpsG, kDeltaG);
  TaskId next_id = 0;
  for (size_t t = 0; t < 15; ++t) {
    int64_t arrivals = rng.UniformInt(1, 4);
    for (int64_t a = 0; a < arrivals; ++a) {
      double weight = weighted ? rng.Uniform(0.5, 6.0) : 1.0;
      Task task(next_id++, weight, capacity.Scaled(rng.Uniform(0.05, 0.45)));
      task.arrival_time = static_cast<double>(t);
      task.timeout = rng.Bernoulli(0.3) ? rng.Uniform(3.0, 8.0)
                                        : std::numeric_limits<double>::infinity();
      task.num_recent_blocks = static_cast<size_t>(rng.UniformInt(1, 3));
      w.tasks.push_back(std::move(task));
    }
  }
  return w;
}

std::unique_ptr<Scheduler> MakeScheduler(GreedyMetric metric, size_t num_shards = 1) {
  return std::make_unique<GreedyScheduler>(
      metric,
      GreedySchedulerOptions{.eta = 0.05, .incremental = true, .num_shards = num_shards});
}

// The deterministic face of the metrics (cycle runtimes are wall clock and excluded).
void ExpectMetricsEqual(const AllocationMetrics& actual, const AllocationMetrics& expected,
                        const std::string& label) {
  EXPECT_EQ(actual.submitted(), expected.submitted()) << label;
  EXPECT_EQ(actual.allocated(), expected.allocated()) << label;
  EXPECT_EQ(actual.evicted(), expected.evicted()) << label;
  EXPECT_EQ(actual.submitted_weight(), expected.submitted_weight()) << label;
  EXPECT_EQ(actual.allocated_weight(), expected.allocated_weight()) << label;
  EXPECT_EQ(actual.submitted_fair_share(), expected.submitted_fair_share()) << label;
  EXPECT_EQ(actual.allocated_fair_share(), expected.allocated_fair_share()) << label;
  EXPECT_EQ(actual.delays().samples(), expected.delays().samples()) << label;
}

// Kills the run at cycle `k` (optionally mid-submission-drain), ships the snapshot through
// the binary wire format, resumes, and diffs grants + metrics against `reference`.
void CheckSplitRun(GreedyMetric metric, const RecoveryWorkload& workload,
                   const SimResult& reference, size_t k, bool mid_drain, size_t num_shards,
                   const std::string& label) {
  SimConfig split_config = workload.config;
  split_config.stop_after_cycles = k;
  split_config.stop_mid_drain = mid_drain;
  SimResult prefix =
      RunOnlineSimulation(MakeScheduler(metric, num_shards), workload.tasks, split_config);
  ASSERT_TRUE(prefix.snapshot.has_value()) << label;
  ASSERT_EQ(prefix.cycles_run, k) << label;
  // The snapshot records the engine that ran (FCFS never shards).
  EXPECT_EQ(prefix.snapshot->meta.num_shards, metric == GreedyMetric::kFcfs ? 1u : num_shards)
      << label;

  // The crash ships the snapshot through the wire format, as a real recovery would.
  SnapshotParseResult parsed = DecodeSnapshotBinary(EncodeSnapshotBinary(*prefix.snapshot));
  ASSERT_TRUE(parsed.ok) << label << ": " << parsed.error;

  SimResult suffix = ResumeOnlineSimulation(MakeScheduler(metric, num_shards),
                                            parsed.snapshot, workload.tasks, workload.config);

  // Byte-identical grant sequence: the prefix's cycles plus the resumed cycles equal the
  // uninterrupted run's trace, cycle by cycle, id by id.
  std::vector<std::vector<TaskId>> stitched = prefix.grant_trace;
  stitched.insert(stitched.end(), suffix.grant_trace.begin(), suffix.grant_trace.end());
  EXPECT_EQ(stitched, reference.grant_trace) << label;

  EXPECT_EQ(suffix.cycles_run, reference.cycles_run) << label;
  EXPECT_EQ(suffix.blocks_created, reference.blocks_created) << label;
  EXPECT_EQ(suffix.pending_at_end, reference.pending_at_end) << label;
  ExpectMetricsEqual(suffix.metrics, reference.metrics, label);
}

class RecoveryEquivalenceTest : public testing::TestWithParam<GreedyMetric> {};

TEST_P(RecoveryEquivalenceTest, EveryKillCycleRestoresToIdenticalRun) {
  // The headline property: for shards {1, 2, 4}, checkpoint at cycle k +
  // restore + run to completion == uninterrupted run, for EVERY cycle boundary k.
  RecoveryWorkload workload = MakeWorkload(/*seed=*/7, /*weighted=*/true);
  SimResult reference =
      RunOnlineSimulation(MakeScheduler(GetParam()), workload.tasks, workload.config);
  ASSERT_GT(reference.cycles_run, 2u);
  ASSERT_GT(reference.metrics.allocated(), 0u);
  ASSERT_GT(reference.metrics.evicted(), 0u);  // Timeouts exercised.
  for (size_t num_shards : {1u, 2u, 4u}) {
    for (size_t k = 1; k < reference.cycles_run; ++k) {
      std::string label = "metric=" + std::to_string(static_cast<int>(GetParam())) +
                          " shards=" + std::to_string(num_shards) + " k=" + std::to_string(k);
      CheckSplitRun(GetParam(), workload, reference, k, /*mid_drain=*/false, num_shards,
                    label);
    }
  }
}

TEST_P(RecoveryEquivalenceTest, MidDrainKillPointsRestoreToIdenticalRun) {
  // The mid-submission-drain kill: arrivals at the next cycle instant are already in the
  // queue, the cycle that would schedule them has not run. Resume executes it first.
  RecoveryWorkload workload = MakeWorkload(/*seed=*/19, /*weighted=*/false);
  SimResult reference =
      RunOnlineSimulation(MakeScheduler(GetParam()), workload.tasks, workload.config);
  ASSERT_GT(reference.cycles_run, 2u);
  for (size_t k = 1; k < reference.cycles_run; ++k) {
    std::string label = "mid-drain metric=" + std::to_string(static_cast<int>(GetParam())) +
                        " k=" + std::to_string(k);
    CheckSplitRun(GetParam(), workload, reference, k, /*mid_drain=*/true, /*num_shards=*/2,
                  label);
  }
}

TEST_P(RecoveryEquivalenceTest, RandomizedKillSoak) {
  // Randomized kill points across randomized workloads, engine shapes, and drain states —
  // the crash-restart soak. Every trial must stitch back to its own reference.
  for (uint64_t seed : {101u, 202u, 303u}) {
    RecoveryWorkload workload = MakeWorkload(seed, /*weighted=*/seed % 2 == 0);
    SimResult reference =
        RunOnlineSimulation(MakeScheduler(GetParam()), workload.tasks, workload.config);
    ASSERT_GT(reference.cycles_run, 2u);
    Rng rng(seed * 17 + 1);
    for (int trial = 0; trial < 4; ++trial) {
      size_t k = static_cast<size_t>(
          rng.UniformInt(1, static_cast<int64_t>(reference.cycles_run) - 1));
      bool mid_drain = rng.Bernoulli(0.5);
      size_t num_shards = static_cast<size_t>(rng.UniformInt(1, 4));
      std::string label = "soak seed=" + std::to_string(seed) + " k=" + std::to_string(k) +
                          " mid_drain=" + std::to_string(mid_drain) +
                          " shards=" + std::to_string(num_shards);
      CheckSplitRun(GetParam(), workload, reference, k, mid_drain, num_shards, label);
    }
  }
}

INSTANTIATE_TEST_SUITE_P(AllMetrics, RecoveryEquivalenceTest,
                         testing::Values(GreedyMetric::kDpack, GreedyMetric::kDpf,
                                         GreedyMetric::kArea, GreedyMetric::kFcfs),
                         [](const testing::TestParamInfo<GreedyMetric>& param_info) {
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
                         });

TEST(RecoveryClampTest, KillPastTheFinalCycleStillCaptures) {
  // stop_after_cycles clamps to the run's total cycle count: the snapshot then holds the
  // fully-run state and a resume has nothing left to schedule, but the capture is never
  // silently skipped.
  RecoveryWorkload workload = MakeWorkload(/*seed=*/3, /*weighted=*/false);
  SimResult reference =
      RunOnlineSimulation(MakeScheduler(GreedyMetric::kDpf), workload.tasks, workload.config);
  SimConfig split_config = workload.config;
  split_config.stop_after_cycles = reference.cycles_run + 50;
  SimResult full =
      RunOnlineSimulation(MakeScheduler(GreedyMetric::kDpf), workload.tasks, split_config);
  ASSERT_TRUE(full.snapshot.has_value());
  EXPECT_EQ(full.cycles_run, reference.cycles_run);
  EXPECT_EQ(full.grant_trace, reference.grant_trace);
  SimResult resumed = ResumeOnlineSimulation(MakeScheduler(GreedyMetric::kDpf),
                                             *full.snapshot, workload.tasks, workload.config);
  EXPECT_EQ(resumed.cycles_run, reference.cycles_run);
  ExpectMetricsEqual(resumed.metrics, reference.metrics, "clamped kill");
}

TEST(OrchestratorRecoveryTest, PeriodicCheckpointsFlowThroughTheStateStore) {
  // The orchestrator persists a snapshot every K cycles through the simulated API server;
  // the persistence traffic lands in the run's store accounting.
  OrchestratorConfig config;
  config.offline_blocks = 2;
  config.online_blocks = 3;
  config.period = 1.0;
  config.unlock_steps = 2;
  config.store_latency_us = 10.0;
  config.checkpoint_every_cycles = 2;

  RdpCurve capacity = BlockCapacityCurve(Grid(), kEpsG, kDeltaG);
  std::vector<Task> tasks;
  for (int i = 0; i < 24; ++i) {
    Task t(i, 1.0, capacity.Scaled(0.03));
    t.num_recent_blocks = 2;
    t.arrival_time = static_cast<double>(i % 4);
    tasks.push_back(std::move(t));
  }

  ClusterOrchestrator orchestrator(CreateScheduler(SchedulerKind::kDpack), config);
  OrchestratorRunResult result = orchestrator.RunOnline(tasks);
  EXPECT_GT(result.checkpoints_taken, 0u);
  EXPECT_GT(result.store_bytes_written, 0u);
  ASSERT_FALSE(result.last_checkpoint.empty());
  // Checkpoint traffic is charged to the same store as the claim traffic.
  EXPECT_GE(result.store_operations, result.checkpoints_taken);

  SnapshotParseResult parsed = DecodeSnapshotBinary(result.last_checkpoint);
  ASSERT_TRUE(parsed.ok) << parsed.error;
  EXPECT_EQ(parsed.snapshot.meta.period, config.period);

  // Crash-restart: resume the same orchestrator from the persisted snapshot. The recovered
  // run must complete, the cumulative accounting must stay monotone and conserved, and the
  // run is event-driven on virtual time, so it must end exactly where the uninterrupted
  // run ended.
  OrchestratorRunResult resumed = orchestrator.ResumeFrom(parsed.snapshot, tasks);
  EXPECT_GE(resumed.metrics.submitted(), parsed.snapshot.metrics.submitted);
  EXPECT_GE(resumed.metrics.allocated(), parsed.snapshot.metrics.allocated);
  EXPECT_LE(resumed.metrics.submitted(), tasks.size());
  EXPECT_LE(resumed.metrics.allocated() + resumed.metrics.evicted(),
            resumed.metrics.submitted());
  EXPECT_GT(resumed.cycles, parsed.snapshot.meta.cycles_completed);
  ExpectMetricsEqual(resumed.metrics, result.metrics, "orchestrator resume");
  EXPECT_EQ(resumed.cycles, result.cycles);
}

TEST(OrchestratorRecoveryTest, ResumedRunKeepsCheckpointing) {
  OrchestratorConfig config;
  config.offline_blocks = 2;
  config.online_blocks = 2;
  config.period = 1.0;
  config.unlock_steps = 2;
  config.store_latency_us = 0.0;
  config.checkpoint_every_cycles = 5;

  RdpCurve capacity = BlockCapacityCurve(Grid(), kEpsG, kDeltaG);
  std::vector<Task> tasks;
  for (int i = 0; i < 10; ++i) {
    Task t(i, 1.0, capacity.Scaled(0.02));
    t.num_recent_blocks = 1;
    t.arrival_time = static_cast<double>(i % 3);
    tasks.push_back(std::move(t));
  }
  // Cycles run at t = 0..5, so the first run's only checkpoint (after cycle 5) leaves one
  // cycle for the resumed run, which checkpoints after every cycle.
  ClusterOrchestrator orchestrator(CreateScheduler(SchedulerKind::kDpf), config);
  OrchestratorRunResult first = orchestrator.RunOnline(tasks);
  ASSERT_FALSE(first.last_checkpoint.empty());
  SnapshotParseResult parsed = DecodeSnapshotBinary(first.last_checkpoint);
  ASSERT_TRUE(parsed.ok) << parsed.error;
  config.checkpoint_every_cycles = 1;
  ClusterOrchestrator every_cycle(CreateScheduler(SchedulerKind::kDpf), config);
  OrchestratorRunResult resumed = every_cycle.ResumeFrom(parsed.snapshot, tasks);
  // The resumed run checkpoints on its own cadence too, so a second crash anywhere in it
  // would recover the same way.
  EXPECT_GT(resumed.checkpoints_taken, 0u);
  ASSERT_FALSE(resumed.last_checkpoint.empty());
  EXPECT_TRUE(DecodeSnapshotBinary(resumed.last_checkpoint).ok);
}

TEST(OrchestratorRecoveryDeathTest, RejectsASnapshotOneBlockShort) {
  // Reject, don't trust: at checkpoint time 2 the arrival process has produced the 2
  // offline blocks and online blocks 1 and 2. A well-formed snapshot holding only 3 of them
  // must be refused, not resumed with the next arrival landing under the wrong id.
  OrchestratorConfig config;
  config.offline_blocks = 2;
  config.online_blocks = 3;
  config.period = 1.0;
  config.unlock_steps = 2;
  config.store_latency_us = 0.0;

  BlockManager blocks(Grid(), kEpsG, kDeltaG);
  blocks.AddBlock(0.0, /*unlocked=*/true);
  blocks.AddBlock(0.0, /*unlocked=*/true);
  blocks.AddBlock(1.0);
  SnapshotMeta meta;
  meta.cycles_completed = 3;
  meta.checkpoint_time = 2.0;
  meta.next_cycle_time = 3.0;
  meta.period = config.period;
  meta.unlock_steps = config.unlock_steps;
  meta.fair_share_n = config.unlock_steps;
  ClusterSnapshot snapshot = CaptureSnapshot(blocks, {}, AllocationMetrics(), meta);
  ASSERT_EQ(ValidateSnapshot(snapshot), "");

  ClusterOrchestrator orchestrator(CreateScheduler(SchedulerKind::kDpack), config);
  EXPECT_DEATH(orchestrator.ResumeFrom(snapshot, {}), "snapshot block count");
}

}  // namespace
}  // namespace dpack
