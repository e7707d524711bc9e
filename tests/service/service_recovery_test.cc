// Crash isolation proofs for the service fleet: SIGKILL any worker at a (seeded) random
// score round, under both recovery policies and multiple fleet shapes, and the grant trace
// must stay byte-identical to the uninterrupted service run AND to the in-process engine.
// Also: a hung (SIGSTOPped) worker is detected by heartbeat stall and recovered; a worker
// waiting on its doorbell exits once its daemon dies; and the checkpoint codec resumes a
// killed service run on an entirely fresh fleet with the stitched trace equal to the
// uninterrupted one.

#include <gtest/gtest.h>
#include <sys/prctl.h>
#include <unistd.h>

#include <csignal>
#include <algorithm>
#include <memory>
#include <string>
#include <vector>

#include "src/common/rng.h"
#include "src/common/sleep.h"
#include "src/common/subprocess.h"
#include "src/core/scheduler.h"
#include "src/orchestrator/checkpoint.h"
#include "src/service/grant_service.h"
#include "src/sim/service_sim.h"
#include "src/sim/sim_driver.h"
#include "src/workload/curve_pool.h"
#include "src/workload/scenario.h"

namespace dpack {
namespace {

constexpr uint64_t kSeed = 909;

AlphaGridPtr Grid() { return AlphaGrid::Default(); }

const CurvePool& Pool() {
  static const CurvePool pool(Grid(), BlockCapacityCurve(Grid(), 10.0, 1e-7));
  return pool;
}

ScenarioWorkload Workload(const std::string& name) {
  ScenarioWorkload workload = GenerateScenario(Pool(), ScenarioByName(name, kSeed));
  workload.sim.record_grant_trace = true;
  return workload;
}

SimResult ReferenceRun(GreedyMetric metric, const ScenarioWorkload& workload) {
  auto scheduler = std::make_unique<GreedyScheduler>(
      metric, GreedySchedulerOptions{.eta = 0.05, .incremental = true});
  return RunOnlineSimulation(std::move(scheduler), workload.tasks, workload.sim);
}

const char* RecoveryName(ServiceRecovery recovery) {
  return recovery == ServiceRecovery::kRespawn ? "respawn" : "reassign";
}

TEST(ServiceRecoveryTest, KillMatrixYieldsByteIdenticalTraces) {
  Rng rng(kSeed);
  for (const std::string& name : {std::string("steady_poisson"), std::string("cohort_skew")}) {
    ScenarioWorkload workload = Workload(name);
    SimResult reference = ReferenceRun(GreedyMetric::kDpack, workload);
    ASSERT_GT(reference.cycles_run, 3u) << name;

    struct Shape {
      size_t workers;
      size_t shards;
    };
    for (const Shape& shape : {Shape{2, 2}, Shape{4, 4}}) {
      ServiceConfig base;
      base.num_workers = shape.workers;
      base.num_shards = shape.shards;
      ServiceSimResult unkilled =
          RunServiceSimulation(GreedyMetric::kDpack, workload.tasks, workload.sim, base);
      ASSERT_EQ(unkilled.sim.grant_trace, reference.grant_trace) << name;

      for (ServiceRecovery recovery :
           {ServiceRecovery::kReassign, ServiceRecovery::kRespawn}) {
        // Randomized-but-seeded kill point in the first half of the run: score rounds only
        // advance on non-empty batches, so a draw near cycles_run could land past the last
        // round (and never fire); the first half is always densely scheduled.
        uint64_t kill_round = static_cast<uint64_t>(
            rng.UniformInt(1, std::max<int64_t>(2, static_cast<int64_t>(reference.cycles_run) / 2)));
        size_t kill_worker =
            static_cast<size_t>(rng.UniformInt(0, static_cast<int64_t>(shape.workers) - 1));
        std::string label = name + " workers=" + std::to_string(shape.workers) +
                            " shards=" + std::to_string(shape.shards) + " kill_round=" +
                            std::to_string(kill_round) + " kill_worker=" +
                            std::to_string(kill_worker) + " " + RecoveryName(recovery);

        ServiceConfig killed = base;
        killed.recovery = recovery;
        killed.kill_at_round = kill_round;
        killed.kill_worker = kill_worker;
        ServiceSimResult result =
            RunServiceSimulation(GreedyMetric::kDpack, workload.tasks, workload.sim, killed);
        EXPECT_EQ(result.sim.grant_trace, unkilled.sim.grant_trace) << label;
        EXPECT_EQ(result.sim.grant_trace, reference.grant_trace) << label;
        EXPECT_EQ(result.sim.metrics.allocated(), reference.metrics.allocated()) << label;
        EXPECT_EQ(result.counters.recoveries, 1u) << label;
        if (recovery == ServiceRecovery::kRespawn) {
          EXPECT_EQ(result.counters.respawns, 1u) << label;
          EXPECT_EQ(result.counters.state_replays, 1u) << label;
        } else {
          EXPECT_EQ(result.counters.respawns, 0u) << label;
          EXPECT_EQ(result.counters.state_replays, 0u) << label;
        }
      }
    }
  }
}

// Kill every worker index in turn: no shard assignment is special, including worker 0's.
TEST(ServiceRecoveryTest, AnyWorkerIndexIsExpendable) {
  ScenarioWorkload workload = Workload("bursty_hotspot");
  SimResult reference = ReferenceRun(GreedyMetric::kDpack, workload);
  for (size_t kill_worker = 0; kill_worker < 4; ++kill_worker) {
    ServiceConfig config;
    config.num_workers = 4;
    config.num_shards = 4;
    config.kill_at_round = 2;
    config.kill_worker = kill_worker;
    ServiceSimResult result =
        RunServiceSimulation(GreedyMetric::kDpack, workload.tasks, workload.sim, config);
    EXPECT_EQ(result.sim.grant_trace, reference.grant_trace) << "worker " << kill_worker;
    EXPECT_EQ(result.counters.recoveries, 1u) << "worker " << kill_worker;
  }
}

// FCFS exercises the no-scoring merge path; a kill must not perturb arrival order.
TEST(ServiceRecoveryTest, FcfsSurvivesKill) {
  ScenarioWorkload workload = Workload("trickle_drain");
  SimResult reference = ReferenceRun(GreedyMetric::kFcfs, workload);
  ServiceConfig config;
  config.num_workers = 2;
  config.num_shards = 2;
  config.kill_at_round = 1;
  config.kill_worker = 1;
  config.recovery = ServiceRecovery::kRespawn;
  ServiceSimResult result =
      RunServiceSimulation(GreedyMetric::kFcfs, workload.tasks, workload.sim, config);
  EXPECT_EQ(result.sim.grant_trace, reference.grant_trace);
  EXPECT_EQ(result.counters.recoveries, 1u);
}

// A worker that stops making progress without dying (SIGSTOP) must be detected by the
// heartbeat stall, killed by the daemon, and recovered — same grants as a healthy run.
TEST(ServiceRecoveryTest, HungWorkerDetectedByHeartbeat) {
  auto build_blocks = []() {
    BlockManager blocks(Grid(), 10.0, 1e-7);
    for (int b = 0; b < 4; ++b) blocks.AddBlock(0.0, /*unlocked=*/true);
    return blocks;
  };
  auto batch = [](int64_t first_id) {
    std::vector<Task> tasks;
    for (int i = 0; i < 4; ++i) {
      Task task(first_id + i, /*weight=*/1.0, Pool().capacity().Scaled(0.1));
      task.blocks = {i % 4, (i + 1) % 4};
      task.arrival_time = 0.0;
      tasks.push_back(std::move(task));
    }
    return tasks;
  };

  BlockManager service_blocks = build_blocks();
  GrantServiceConfig config;
  config.service.num_workers = 2;
  config.service.num_shards = 2;
  // Tight budget so the hang is detected in milliseconds, not seconds.
  config.service.poll_sleep_us = 20;
  config.service.stall_budget = 3000;
  GrantService service(GreedyMetric::kDpack, &service_blocks, config);
  for (Task& task : batch(0)) ASSERT_TRUE(service.Submit(std::move(task)));
  ASSERT_EQ(service.RunCycle(0.0), 4u);

  // Freeze worker 1 mid-service. The next cycle's score request to it goes unanswered; the
  // daemon must notice the flat heartbeat, SIGKILL it, and reassign its shard.
  pid_t hung = service.scheduler().transport().pid(1);
  KillChild(hung, SIGSTOP);
  for (Task& task : batch(100)) ASSERT_TRUE(service.Submit(std::move(task)));
  EXPECT_EQ(service.RunCycle(1.0), 4u);
  EXPECT_EQ(service.counters().recoveries, 1u);
  EXPECT_FALSE(service.scheduler().transport().alive(1));

  // The recovered fleet's grants match an in-process run of the same two cycles.
  BlockManager reference_blocks = build_blocks();
  auto inner = std::make_unique<GreedyScheduler>(
      GreedyMetric::kDpack, GreedySchedulerOptions{.eta = 0.05, .incremental = true});
  OnlineScheduler reference(std::move(inner), &reference_blocks, OnlineSchedulerConfig{});
  for (Task& task : batch(0)) ASSERT_TRUE(reference.Submit(std::move(task)));
  reference.RunCycle(0.0);
  std::vector<TaskId> first_cycle = reference.last_granted();
  for (Task& task : batch(100)) ASSERT_TRUE(reference.Submit(std::move(task)));
  reference.RunCycle(1.0);
  EXPECT_EQ(service.last_granted(), reference.last_granted());
}

// The orphan check still runs while a worker waits on its bell: with its daemon SIGKILLed,
// a worker blocked in Receive on an empty ring must notice within a wait or two and exit
// nonzero, never wait orphaned forever.
TEST(ServiceRecoveryTest, WorkerWaitingOnItsBellExitsWhenTheDaemonDies) {
  // Orphans reparent to the nearest subreaper. Making this process one lets the test reap
  // the orphaned worker and read its exit status.
  ASSERT_EQ(prctl(PR_SET_CHILD_SUBREAPER, 1), 0);
  int report[2];
  ASSERT_EQ(pipe(report), 0);
  pid_t daemon = SpawnChild([report]() -> int {
    close(report[0]);
    TransportConfig config;
    config.num_workers = 1;
    config.ring_bytes = 4096;
    config.poll_sleep_us = 1000;
    ServiceTransport transport(config, [](WorkerEndpoint& endpoint) {
      ServiceMessage msg;
      return endpoint.Receive(&msg) ? 0 : 7;
    });
    transport.Start();
    // The heartbeat moves once per wait iteration: two beats mean the worker is in Receive.
    for (int i = 0; i < 100000 && transport.heartbeat(0) < 2; ++i) {
      SleepFullMicros(100);
    }
    pid_t worker = transport.pid(0);
    if (write(report[1], &worker, sizeof(worker)) != sizeof(worker)) {
      return 1;
    }
    while (true) {
      pause();  // Until the SIGKILL.
    }
  });
  close(report[1]);
  pid_t worker = -1;
  ASSERT_EQ(read(report[0], &worker, sizeof(worker)), static_cast<ssize_t>(sizeof(worker)));
  close(report[0]);
  KillChild(daemon, SIGKILL);
  ChildStatus daemon_status = WaitChild(daemon);
  EXPECT_EQ(daemon_status.state, ChildState::kSignaled);
  // Reaped daemon => the worker has been reparented here. Give it up to ten seconds.
  ChildStatus status = PollChild(worker);
  for (int i = 0; i < 10000 && status.state == ChildState::kRunning; ++i) {
    SleepFullMicros(1000);
    status = PollChild(worker);
  }
  if (status.state == ChildState::kRunning) {
    KillChild(worker, SIGKILL);
    WaitChild(worker);
  }
  prctl(PR_SET_CHILD_SUBREAPER, 0);
  EXPECT_EQ(status.state, ChildState::kExited);
  EXPECT_EQ(status.exit_code, 7);
}

// Checkpoint + resume on a brand-new fleet: the service composes with the recovery
// subsystem unchanged — stop at cycle k, ship the snapshot through the binary codec, resume
// with fresh processes (and a kill injected into the resumed leg for good measure), and the
// stitched trace equals the uninterrupted run's.
TEST(ServiceRecoveryTest, CheckpointResumesOnFreshFleet) {
  ScenarioWorkload workload = Workload("jittered_heavy");
  SimResult reference = ReferenceRun(GreedyMetric::kDpack, workload);
  ASSERT_GT(reference.cycles_run, 4u);

  ServiceConfig config;
  config.num_workers = 2;
  config.num_shards = 2;

  SimConfig split = workload.sim;
  split.stop_after_cycles = reference.cycles_run / 2;
  ServiceSimResult prefix =
      RunServiceSimulation(GreedyMetric::kDpack, workload.tasks, split, config);
  ASSERT_TRUE(prefix.sim.snapshot.has_value());

  SnapshotParseResult parsed = DecodeSnapshotBinary(EncodeSnapshotBinary(*prefix.sim.snapshot));
  ASSERT_TRUE(parsed.ok) << parsed.error;

  ServiceConfig resumed_config = config;
  resumed_config.kill_at_round = 2;
  resumed_config.kill_worker = 0;
  resumed_config.recovery = ServiceRecovery::kRespawn;
  ServiceSimResult resumed = ResumeServiceSimulation(
      GreedyMetric::kDpack, parsed.snapshot, workload.tasks, workload.sim, resumed_config);

  std::vector<std::vector<TaskId>> stitched = prefix.sim.grant_trace;
  stitched.insert(stitched.end(), resumed.sim.grant_trace.begin(),
                  resumed.sim.grant_trace.end());
  EXPECT_EQ(stitched, reference.grant_trace);
  EXPECT_EQ(resumed.sim.pending_at_end, reference.pending_at_end);
  EXPECT_EQ(resumed.sim.metrics.allocated(), reference.metrics.allocated());
  EXPECT_EQ(resumed.counters.recoveries, 1u);
  EXPECT_EQ(resumed.counters.respawns, 1u);
}

}  // namespace
}  // namespace dpack
