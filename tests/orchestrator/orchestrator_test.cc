#include "src/orchestrator/cluster_orchestrator.h"

#include <gtest/gtest.h>

#include <limits>
#include <memory>
#include <string>
#include <vector>

#include "src/common/rng.h"
#include "src/rdp/rdp_curve.h"
#include "src/sim/sim_driver.h"

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

OrchestratorConfig FastConfig() {
  OrchestratorConfig config;
  config.offline_blocks = 2;
  config.online_blocks = 3;
  config.period = 1.0;
  config.unlock_steps = 2;
  config.store_latency_us = 10.0;
  return config;
}

TEST(OrchestratorOfflineTest, SchedulesAndTimesThePass) {
  ClusterOrchestrator orchestrator(CreateScheduler(SchedulerKind::kDpack), FastConfig());
  std::vector<Task> tasks;
  for (int i = 0; i < 20; ++i) {
    tasks.push_back(FractionTask(i, 0.05, 2, 0.0));
  }
  OrchestratorRunResult result = orchestrator.RunOfflinePass(std::move(tasks));
  EXPECT_EQ(result.metrics.submitted(), 20u);
  EXPECT_EQ(result.metrics.allocated(), 20u);
  EXPECT_GT(result.metrics.total_runtime_seconds(), 0.0);
  // Claim creation (20) + cycle ops (4) + per-grant ops (3 x 20).
  EXPECT_EQ(result.store_operations, 20u + 4u + 60u);
}

TEST(OrchestratorOfflineTest, StoreLatencyDominatesRuntime) {
  // The Q4 observation: with a slow store, the pass runtime is mostly store traffic.
  OrchestratorConfig config = FastConfig();
  config.store_latency_us = 2000.0;  // 2 ms per op.
  ClusterOrchestrator orchestrator(CreateScheduler(SchedulerKind::kDpack), config);
  std::vector<Task> tasks;
  for (int i = 0; i < 10; ++i) {
    tasks.push_back(FractionTask(i, 0.01, 1, 0.0));
  }
  OrchestratorRunResult result = orchestrator.RunOfflinePass(std::move(tasks));
  // Timed region: 4 cycle ops + 30 grant ops = 68 ms of injected latency minimum.
  EXPECT_GE(result.metrics.total_runtime_seconds(), 0.06);
}

TEST(OrchestratorOfflineTest, SecondRunReusesRestoredScheduler) {
  // Regression: Run* moved the scheduler into the run's online driver and never took it
  // back, so a second run on the same orchestrator dereferenced a moved-from (null)
  // scheduler. The scheduler is now restored (with its engine caches invalidated) after
  // every run.
  ClusterOrchestrator orchestrator(CreateScheduler(SchedulerKind::kDpack), FastConfig());
  for (int run = 0; run < 2; ++run) {
    std::vector<Task> tasks;
    for (int i = 0; i < 10; ++i) {
      tasks.push_back(FractionTask(run * 100 + i, 0.05, 2, 0.0));
    }
    OrchestratorRunResult result = orchestrator.RunOfflinePass(std::move(tasks));
    EXPECT_EQ(result.metrics.submitted(), 10u) << "run " << run;
    EXPECT_EQ(result.metrics.allocated(), 10u) << "run " << run;
    // Engine counters are per run, not lifetime: the restored scheduler's engine keeps its
    // monotonic totals, but each result reports only its own run's single pass.
    EXPECT_EQ(result.scheduler_stats.cycles, 1u) << "run " << run;
  }
}

TEST(OrchestratorOnlineTest, OnlineThenOfflineReusesRestoredScheduler) {
  ClusterOrchestrator orchestrator(CreateScheduler(SchedulerKind::kDpf), FastConfig());
  std::vector<Task> online_tasks;
  for (int i = 0; i < 8; ++i) {
    online_tasks.push_back(FractionTask(i, 0.02, 1, 0.0));
  }
  OrchestratorRunResult online = orchestrator.RunOnline(std::move(online_tasks));
  EXPECT_EQ(online.metrics.submitted(), 8u);

  std::vector<Task> offline_tasks;
  for (int i = 0; i < 8; ++i) {
    offline_tasks.push_back(FractionTask(100 + i, 0.02, 1, 0.0));
  }
  OrchestratorRunResult offline = orchestrator.RunOfflinePass(std::move(offline_tasks));
  EXPECT_EQ(offline.metrics.submitted(), 8u);
  EXPECT_EQ(offline.metrics.allocated(), 8u);
}

TEST(OrchestratorOnlineTest, ProcessesWorkloadEndToEnd) {
  ClusterOrchestrator orchestrator(CreateScheduler(SchedulerKind::kDpack), FastConfig());
  std::vector<Task> tasks;
  for (int i = 0; i < 30; ++i) {
    tasks.push_back(FractionTask(i, 0.02, 2, static_cast<double>(i % 3)));
  }
  OrchestratorRunResult result = orchestrator.RunOnline(std::move(tasks));
  EXPECT_EQ(result.metrics.submitted(), 30u);
  EXPECT_EQ(result.metrics.allocated(), 30u);  // Ample budget.
  EXPECT_GT(result.cycles, 0u);
  EXPECT_GT(result.store_operations, 30u);
}

TEST(OrchestratorOnlineTest, DelaysRecordedInVirtualTime) {
  OrchestratorConfig config = FastConfig();
  config.unlock_steps = 3;
  ClusterOrchestrator orchestrator(CreateScheduler(SchedulerKind::kDpack), config);
  // One task needing the full budget of one block. It arrives with online block 1 (t = 1),
  // whose budget unlocks in thirds at t = 1, 2, 3, so it waits exactly 2 periods. (At t = 0
  // its most recent block would be an offline one, fully unlocked, and it would not wait.)
  std::vector<Task> tasks = {FractionTask(0, 0.95, 1, 1.0)};
  OrchestratorRunResult result = orchestrator.RunOnline(std::move(tasks));
  ASSERT_EQ(result.metrics.allocated(), 1u);
  EXPECT_GE(result.metrics.delays().Quantile(0.5), 1.0);
  EXPECT_EQ(result.metrics.delays().Quantile(0.5), 2.0);
}

TEST(OrchestratorOnlineTest, EmptyTaskVectorShutsDownCleanly) {
  // Shutdown-path coverage: with nothing to submit the run must still add the online
  // blocks and run every cycle up to the horizon.
  ClusterOrchestrator orchestrator(CreateScheduler(SchedulerKind::kDpack), FastConfig());
  OrchestratorRunResult result = orchestrator.RunOnline({});
  EXPECT_EQ(result.metrics.submitted(), 0u);
  EXPECT_EQ(result.metrics.allocated(), 0u);
  EXPECT_GT(result.cycles, 0u);
  EXPECT_GT(result.store_operations, 0u);  // Per-cycle traffic only.
}

TEST(OrchestratorOnlineTest, ZeroOnlineBlocksRunsOnOfflineBlocksOnly) {
  // Shutdown-path coverage: with no online block arrivals the horizon is driven by task
  // arrivals and unlocking alone.
  OrchestratorConfig config = FastConfig();
  config.online_blocks = 0;
  ClusterOrchestrator orchestrator(CreateScheduler(SchedulerKind::kDpack), config);
  std::vector<Task> tasks;
  for (int i = 0; i < 6; ++i) {
    tasks.push_back(FractionTask(i, 0.02, 2, static_cast<double>(i % 2)));
  }
  OrchestratorRunResult result = orchestrator.RunOnline(std::move(tasks));
  EXPECT_EQ(result.metrics.submitted(), 6u);
  EXPECT_EQ(result.metrics.allocated(), 6u);  // Ample budget on the offline blocks.
}

TEST(OrchestratorOnlineTest, ShardedSchedulerMatchesMonolithic) {
  // The scheduler's num_shards knob reaches the engine unchanged through the orchestrator,
  // and the sharded engine allocates exactly what the single-shard engine does.
  auto run = [](size_t num_shards) {
    std::vector<Task> tasks;
    for (int i = 0; i < 20; ++i) {
      tasks.push_back(FractionTask(i, 0.03, 2, static_cast<double>(i % 3)));
    }
    ClusterOrchestrator orchestrator(
        CreateScheduler(SchedulerKind::kDpack, 0.05, {}, num_shards), FastConfig());
    return orchestrator.RunOnline(std::move(tasks));
  };
  OrchestratorRunResult mono = run(1);
  OrchestratorRunResult sharded = run(3);
  EXPECT_EQ(sharded.metrics.allocated(), mono.metrics.allocated());
  EXPECT_EQ(sharded.metrics.allocated_weight(), mono.metrics.allocated_weight());
  EXPECT_EQ(sharded.scheduler_stats.shards, 3u);
  EXPECT_EQ(mono.scheduler_stats.shards, 1u);
  EXPECT_EQ(sharded.scheduler_stats.full_recomputes, 0u);
}

TEST(OrchestratorOnlineTest, DefaultConfigIsSingleShardOnEveryHost) {
  // Regression: drivers built after blocks exist (every orchestrator run, every resumed
  // simulation) used to resolve a default shard count against the host's core count, so
  // checkpoints and stats depended on the machine. A default scheduler is one shard
  // everywhere, and the snapshot records the engine that actually ran.
  OrchestratorConfig config = FastConfig();
  config.checkpoint_every_cycles = 1;
  ClusterOrchestrator orchestrator(CreateScheduler(SchedulerKind::kDpack), config);
  std::vector<Task> tasks;
  for (int i = 0; i < 10; ++i) {
    tasks.push_back(FractionTask(i, 0.03, 2, static_cast<double>(i % 3)));
  }
  OrchestratorRunResult run = orchestrator.RunOnline(std::move(tasks));
  EXPECT_EQ(run.scheduler_stats.shards, 1u);
  ASSERT_FALSE(run.last_checkpoint.empty());
  SnapshotParseResult decoded = DecodeSnapshotBinary(run.last_checkpoint);
  ASSERT_TRUE(decoded.ok) << decoded.error;
  EXPECT_EQ(decoded.snapshot.meta.num_shards, 1u);
  EXPECT_EQ(decoded.snapshot.shard_clocks.size(), 1u);

  // The same for a resumed simulation: its driver is built over the restored blocks.
  SimConfig sim;
  sim.num_blocks = 6;
  sim.unlock_steps = 4;
  std::vector<Task> sim_tasks;
  for (int i = 0; i < 12; ++i) {
    sim_tasks.push_back(FractionTask(i, 0.05, 2, static_cast<double>(i / 2)));
  }
  SimConfig split = sim;
  split.stop_after_cycles = 4;
  SimResult first = RunOnlineSimulation(CreateScheduler(SchedulerKind::kDpack), sim_tasks, split);
  ASSERT_TRUE(first.snapshot.has_value());
  EXPECT_EQ(first.snapshot->meta.num_shards, 1u);
  ASSERT_GE(first.snapshot->blocks.size(), 2u);
  SimResult resumed = ResumeOnlineSimulation(CreateScheduler(SchedulerKind::kDpack),
                                             *first.snapshot, sim_tasks, sim);
  EXPECT_EQ(resumed.scheduler_stats.shards, 1u);
}

TEST(OrchestratorOnlineTest, DpackAllocatesAtLeastAsMuchAsDpfUnderContention) {
  auto run = [](SchedulerKind kind) {
    OrchestratorConfig config = FastConfig();
    config.offline_blocks = 3;
    config.online_blocks = 2;
    std::vector<Task> tasks;
    // Heterogeneous contention: multi-block vs single-block tasks (Fig. 1 style).
    RdpCurve capacity = BlockCapacityCurve(Grid(), 10.0, 1e-7);
    for (int i = 0; i < 12; ++i) {
      if (i % 4 == 0) {
        Task t(i, 1.0, capacity.Scaled(0.45));
        t.num_recent_blocks = 3;
        t.arrival_time = 0.0;
        tasks.push_back(t);
      } else {
        Task t(i, 1.0, capacity.Scaled(0.55));
        t.num_recent_blocks = 1;
        t.arrival_time = 0.0;
        tasks.push_back(t);
      }
    }
    ClusterOrchestrator orch(CreateScheduler(kind), config);
    return orch.RunOnline(std::move(tasks)).metrics.allocated();
  };
  size_t dpack = run(SchedulerKind::kDpack);
  size_t dpf = run(SchedulerKind::kDpf);
  EXPECT_GE(dpack, dpf);
  // The run is event-driven on virtual time, so the counts are fixed by the workload.
  EXPECT_EQ(dpack, 2u);
  EXPECT_EQ(dpf, 2u);
}

// --- Equivalence legs ---------------------------------------------------------------------
//
// The orchestrator runs in the sim driver's event order, so its grants are a function of the
// workload and the config alone. Each leg compares every deterministic metric (delay samples
// included) and the cycle count, for all four greedy metrics.

constexpr GreedyMetric kAllMetrics[] = {GreedyMetric::kDpack, GreedyMetric::kDpf,
                                        GreedyMetric::kArea, GreedyMetric::kFcfs};

std::unique_ptr<Scheduler> MakeScheduler(GreedyMetric metric, bool incremental = true,
                                         size_t num_shards = 1) {
  return std::make_unique<GreedyScheduler>(
      metric, GreedySchedulerOptions{
                  .eta = 0.05, .incremental = incremental, .num_shards = num_shards});
}

// A contended weighted stream over t = 0..last_arrival: queues persist across cycles, grants
// trickle, and some claims time out.
std::vector<Task> ContendedWorkload(uint64_t seed, int last_arrival = 8) {
  Rng rng(seed);
  RdpCurve capacity = BlockCapacityCurve(Grid(), 10.0, 1e-7);
  std::vector<Task> tasks;
  TaskId next_id = 0;
  for (int t = 0; t <= last_arrival; ++t) {
    int64_t arrivals = rng.UniformInt(1, 4);
    for (int64_t a = 0; a < arrivals; ++a) {
      Task task(next_id++, rng.Uniform(0.5, 6.0), capacity.Scaled(rng.Uniform(0.05, 0.45)));
      task.arrival_time = static_cast<double>(t);
      task.timeout = rng.Bernoulli(0.3) ? rng.Uniform(3.0, 8.0)
                                        : std::numeric_limits<double>::infinity();
      task.num_recent_blocks = static_cast<size_t>(rng.UniformInt(1, 3));
      tasks.push_back(std::move(task));
    }
  }
  return tasks;
}

// 2 offline + 6 online blocks, T = 1, N = 4: with arrivals up to t = 8, cycles run at
// t = 0..13.
OrchestratorConfig EquivalenceConfig() {
  OrchestratorConfig config;
  config.offline_blocks = 2;
  config.online_blocks = 6;
  config.period = 1.0;
  config.unlock_steps = 4;
  config.store_latency_us = 0.0;
  return config;
}

void ExpectSameRun(const AllocationMetrics& actual, size_t actual_cycles,
                   const AllocationMetrics& expected, size_t expected_cycles,
                   const std::string& label) {
  EXPECT_EQ(actual.submitted(), expected.submitted()) << label;
  EXPECT_EQ(actual.allocated(), expected.allocated()) << label;
  EXPECT_EQ(actual.evicted(), expected.evicted()) << label;
  EXPECT_EQ(actual.submitted_weight(), expected.submitted_weight()) << label;
  EXPECT_EQ(actual.allocated_weight(), expected.allocated_weight()) << label;
  EXPECT_EQ(actual.submitted_fair_share(), expected.submitted_fair_share()) << label;
  EXPECT_EQ(actual.allocated_fair_share(), expected.allocated_fair_share()) << label;
  EXPECT_EQ(actual.delays().samples(), expected.delays().samples()) << label;
  EXPECT_EQ(actual_cycles, expected_cycles) << label;
}

TEST(OrchestratorEquivalenceTest, MatchesTheSimDriverWithoutOfflineBlocks) {
  // Leg (a): with no offline blocks the orchestrator's arrival process is the sim driver's
  // on block_arrival_times {1..n}, and its horizon is the sim's with drain_margin 1.
  OrchestratorConfig config = EquivalenceConfig();
  config.offline_blocks = 0;
  config.period = 2.0;
  SimConfig sim;
  sim.eps_g = config.eps_g;
  sim.delta_g = config.delta_g;
  for (size_t b = 1; b <= config.online_blocks; ++b) {
    sim.block_arrival_times.push_back(static_cast<double>(b));
  }
  sim.period = config.period;
  sim.unlock_steps = config.unlock_steps;
  sim.drain_margin = 1.0;
  std::vector<Task> tasks = ContendedWorkload(/*seed=*/5);
  for (GreedyMetric metric : kAllMetrics) {
    ClusterOrchestrator orchestrator(MakeScheduler(metric), config);
    OrchestratorRunResult run = orchestrator.RunOnline(tasks);
    SimResult reference = RunOnlineSimulation(MakeScheduler(metric), tasks, sim);
    ASSERT_GT(reference.metrics.allocated(), 0u);
    ExpectSameRun(run.metrics, run.cycles, reference.metrics, reference.cycles_run,
                  "metric " + std::to_string(static_cast<int>(metric)));
  }
}

TEST(OrchestratorEquivalenceTest, RecomputeReferenceMatchesEveryShardCount) {
  // Leg (b): the recompute reference and the incremental engine at shards {1, 2, 4, 7}.
  std::vector<Task> tasks = ContendedWorkload(/*seed=*/7);
  for (GreedyMetric metric : kAllMetrics) {
    ClusterOrchestrator reference_orchestrator(MakeScheduler(metric, /*incremental=*/false),
                                               EquivalenceConfig());
    OrchestratorRunResult reference = reference_orchestrator.RunOnline(tasks);
    ASSERT_GT(reference.metrics.evicted(), 0u);
    for (size_t shards : {1, 2, 4, 7}) {
      ClusterOrchestrator orchestrator(MakeScheduler(metric, /*incremental=*/true, shards),
                                       EquivalenceConfig());
      OrchestratorRunResult run = orchestrator.RunOnline(tasks);
      ExpectSameRun(run.metrics, run.cycles, reference.metrics, reference.cycles,
                    "metric " + std::to_string(static_cast<int>(metric)) + " shards " +
                        std::to_string(shards));
    }
  }
}

TEST(OrchestratorEquivalenceTest, ResumeFromLastCheckpointMatchesTheUninterruptedRun) {
  // Leg (c): a fresh orchestrator resumed from the run's last persisted checkpoint ends
  // where the uninterrupted run ended; checkpointing itself changes no grant. Blocks and
  // claims arrive up to t = 10 and N = 2, so cycles run at t = 0..13: 14 cycles, a multiple
  // of neither 3 nor 5. Every 3 cycles the resume runs the last 2 cycles; every 5 it
  // resumes at t = 10 and also replays that instant's block and claim arrivals.
  OrchestratorConfig base = EquivalenceConfig();
  base.online_blocks = 10;
  base.unlock_steps = 2;
  std::vector<Task> tasks = ContendedWorkload(/*seed=*/9, /*last_arrival=*/10);
  for (GreedyMetric metric : kAllMetrics) {
    ClusterOrchestrator plain(MakeScheduler(metric), base);
    OrchestratorRunResult uninterrupted = plain.RunOnline(tasks);
    ASSERT_EQ(uninterrupted.cycles, 14u);
    for (size_t every : {1, 3, 5}) {
      std::string label = "metric " + std::to_string(static_cast<int>(metric)) + " every " +
                          std::to_string(every);
      OrchestratorConfig config = base;
      config.checkpoint_every_cycles = every;
      ClusterOrchestrator first(MakeScheduler(metric), config);
      OrchestratorRunResult checkpointed = first.RunOnline(tasks);
      ExpectSameRun(checkpointed.metrics, checkpointed.cycles, uninterrupted.metrics,
                    uninterrupted.cycles, label + " checkpointed");
      EXPECT_EQ(checkpointed.checkpoints_taken, uninterrupted.cycles / every) << label;
      SnapshotParseResult parsed = DecodeSnapshotBinary(checkpointed.last_checkpoint);
      ASSERT_TRUE(parsed.ok) << label << ": " << parsed.error;
      EXPECT_EQ(parsed.snapshot.meta.checkpoint_time,
                static_cast<double>(uninterrupted.cycles / every * every - 1))
          << label;

      ClusterOrchestrator second(MakeScheduler(metric), config);
      OrchestratorRunResult resumed = second.ResumeFrom(parsed.snapshot, tasks);
      ExpectSameRun(resumed.metrics, resumed.cycles, uninterrupted.metrics,
                    uninterrupted.cycles, label + " resumed");
    }
  }
}

}  // namespace
}  // namespace dpack
