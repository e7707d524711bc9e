// The grant service scores in process: GrantService is the online driver over the
// incremental engine behind admission control, so a scenario replayed through it in the sim
// driver's event order must grant exactly what RunOnlineSimulation grants with
// OnlineScheduler(GreedyScheduler) — byte for byte, for every registry scenario and every
// greedy metric, unbounded and under an admission bound (where the rejection counts must
// match too). Plus the grant-request API's admission control on a hand-built queue.

#include "src/service/grant_service.h"

#include <gtest/gtest.h>

#include <memory>
#include <string>
#include <vector>

#include "src/core/scheduler.h"
#include "src/service/client.h"
#include "src/sim/sim_driver.h"
#include "src/workload/curve_pool.h"
#include "src/workload/scenario.h"

namespace dpack {
namespace {

constexpr uint64_t kSeed = 77;
// Small enough that the deeper scenarios' queues hit it.
constexpr size_t kAdmissionBound = 12;

AlphaGridPtr Grid() { return AlphaGrid::Default(); }

const CurvePool& Pool() {
  static const CurvePool pool(Grid(), BlockCapacityCurve(Grid(), 10.0, 1e-7));
  return pool;
}

ScenarioWorkload Workload(const std::string& name, size_t admission_bound) {
  ScenarioWorkload workload = GenerateScenario(Pool(), ScenarioByName(name, kSeed));
  workload.sim.record_grant_trace = true;
  workload.sim.admission_queue_capacity = admission_bound;
  return workload;
}

SimResult ReferenceRun(GreedyMetric metric, const ScenarioWorkload& workload) {
  auto scheduler = std::make_unique<GreedyScheduler>(
      metric, GreedySchedulerOptions{.eta = 0.05, .incremental = true});
  return RunOnlineSimulation(std::move(scheduler), workload.tasks, workload.sim);
}

struct ServiceRun {
  ReplayResult replay;
  uint64_t allocated = 0;
  size_t pending_at_end = 0;
  uint64_t admission_rejects = 0;
};

// Replays the workload through a GrantService in process, the way the socket daemon sees
// it: at each instant the blocks arriving by then first, then that instant's tasks, then
// the cycle.
ServiceRun ServiceReplay(GreedyMetric metric, const ScenarioWorkload& workload) {
  BlockManager blocks(Grid(), workload.sim.eps_g, workload.sim.delta_g);
  GrantService service(metric, &blocks, OnlineSchedulerConfigFor(workload.sim));
  LocalServiceFront front(&service, &blocks, workload.sim);
  ServiceRun run;
  std::string error;
  EXPECT_TRUE(ReplayWorkload(front, workload.tasks, workload.sim, &run.replay, &error))
      << error;
  run.allocated = service.metrics().allocated();
  run.pending_at_end = service.pending_count();
  run.admission_rejects = service.counters().admission_rejects;
  return run;
}

TEST(GrantServiceEquivalenceTest, EveryScenarioAndMetricMatchesTheEngine) {
  for (size_t bound : {size_t{0}, kAdmissionBound}) {
    for (GreedyMetric metric : {GreedyMetric::kDpack, GreedyMetric::kDpf,
                                GreedyMetric::kArea, GreedyMetric::kFcfs}) {
      uint64_t rejects = 0;
      for (const std::string& name : ScenarioRegistryNames()) {
        std::string label = name + " metric=" + std::to_string(static_cast<int>(metric)) +
                            " bound=" + std::to_string(bound);
        ScenarioWorkload workload = Workload(name, bound);
        SimResult reference = ReferenceRun(metric, workload);
        ServiceRun service = ServiceReplay(metric, workload);
        ASSERT_FALSE(reference.grant_trace.empty()) << label;
        EXPECT_EQ(service.replay.grant_trace, reference.grant_trace) << label;
        EXPECT_EQ(service.allocated, reference.metrics.allocated()) << label;
        EXPECT_EQ(service.pending_at_end, reference.pending_at_end) << label;
        EXPECT_EQ(service.admission_rejects, reference.admission_rejected) << label;
        EXPECT_EQ(service.replay.rejected, service.admission_rejects) << label;
        rejects += service.admission_rejects;
      }
      // The bounded legs must exercise the bound, or they prove nothing the unbounded
      // legs do not.
      EXPECT_EQ(rejects > 0, bound > 0) << "metric " << static_cast<int>(metric);
    }
  }
}

// --- GrantService: the admission-controlled request API -----------------------------------

Task ProbeTask(int64_t id, double fraction, std::vector<BlockId> blocks) {
  Task task(id, /*weight=*/1.0, Pool().capacity().Scaled(fraction));
  task.blocks = std::move(blocks);
  task.arrival_time = 0.0;
  return task;
}

TEST(GrantServiceDeathTest, ReplayRefusesANonPositivePeriod) {
  // ReplayWorkload derives its cycle instants before any scheduler validates the config, so
  // it must refuse a period that would never advance them.
  ScenarioWorkload workload = Workload(ScenarioRegistryNames().front(), 0);
  BlockManager blocks(Grid(), workload.sim.eps_g, workload.sim.delta_g);
  GrantService service(GreedyMetric::kDpack, &blocks, OnlineSchedulerConfigFor(workload.sim));
  LocalServiceFront front(&service, &blocks, workload.sim);
  SimConfig stalled = workload.sim;
  stalled.period = 0.0;
  ReplayResult result;
  std::string error;
  EXPECT_DEATH(ReplayWorkload(front, workload.tasks, stalled, &result, &error),
               "period must be positive");
}

TEST(GrantServiceTest, BoundedQueueRejectsAndCounts) {
  BlockManager blocks(Grid(), 10.0, 1e-7);
  for (int b = 0; b < 2; ++b) blocks.AddBlock(0.0, /*unlocked=*/true);
  GrantServiceConfig config;
  config.admission_queue_capacity = 2;
  GrantService service(GreedyMetric::kDpack, &blocks, config);
  EXPECT_TRUE(service.Submit(ProbeTask(0, 0.2, {0})));
  EXPECT_TRUE(service.Submit(ProbeTask(1, 0.2, {1})));
  EXPECT_FALSE(service.Submit(ProbeTask(2, 0.2, {0})));
  EXPECT_FALSE(service.Submit(ProbeTask(3, 0.2, {1})));
  EXPECT_EQ(service.pending_count(), 2u);
  EXPECT_EQ(service.counters().admission_rejects, 2u);
  // Granting drains the queue; admission opens again.
  EXPECT_EQ(service.RunCycle(0.0), 2u);
  EXPECT_TRUE(service.Submit(ProbeTask(4, 0.2, {0})));
  EXPECT_EQ(service.counters().admission_rejects, 2u);
  EXPECT_EQ(service.metrics().submitted(), 3u);  // Rejected tasks are not submissions.
}

TEST(GrantServiceTest, CyclesMatchInProcessOnlineScheduler) {
  auto build_blocks = []() {
    BlockManager blocks(Grid(), 10.0, 1e-7);
    for (int b = 0; b < 3; ++b) blocks.AddBlock(0.0, /*unlocked=*/true);
    return blocks;
  };
  auto submissions = []() {
    std::vector<Task> tasks;
    tasks.push_back(ProbeTask(0, 0.45, {0, 1, 2}));
    for (int i = 0; i < 3; ++i) {
      tasks.push_back(ProbeTask(1 + i, 0.60, {static_cast<BlockId>(i)}));
    }
    return tasks;
  };

  BlockManager service_blocks = build_blocks();
  GrantService service(GreedyMetric::kDpack, &service_blocks, GrantServiceConfig{});
  for (Task& task : submissions()) ASSERT_TRUE(service.Submit(std::move(task)));
  service.RunCycle(0.0);

  BlockManager reference_blocks = build_blocks();
  auto reference_inner = std::make_unique<GreedyScheduler>(
      GreedyMetric::kDpack, GreedySchedulerOptions{.eta = 0.05, .incremental = true});
  OnlineScheduler reference(std::move(reference_inner), &reference_blocks,
                            OnlineSchedulerConfig{});
  for (Task& task : submissions()) ASSERT_TRUE(reference.Submit(std::move(task)));
  reference.RunCycle(0.0);

  EXPECT_EQ(service.last_granted(), reference.last_granted());
  EXPECT_FALSE(service.last_granted().empty());
}

}  // namespace
}  // namespace dpack
