// Multi-process service vs in-process engines: the service fleet (daemon + N scheduler
// workers over the shm transport) must grant the exact same task ids in the exact same
// order as the single-process engines, for every fleet shape, every metric, and both the
// single-shard and sharded reference engines. Plus the grant-request API's admission
// control, the determinism of the transport counters (two identical runs, identical
// counters — the property the bench baseline gates on), and a churn run whose waits may
// each last two seconds, which finishes quickly only if every message wakes its reader.

#include "src/service/grant_service.h"

#include <gtest/gtest.h>
#include <unistd.h>

#include <algorithm>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "src/common/rng.h"
#include "src/core/scheduler.h"
#include "src/service/service_scheduler.h"
#include "src/sim/service_sim.h"
#include "src/sim/sim_driver.h"
#include "src/workload/curve_pool.h"
#include "src/workload/scenario.h"

namespace dpack {
namespace {

constexpr uint64_t kSeed = 77;

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

ServiceSimResult ServiceRun(GreedyMetric metric, const ScenarioWorkload& workload,
                            size_t num_workers, size_t num_shards) {
  ServiceConfig config;
  config.num_workers = num_workers;
  config.num_shards = num_shards;
  return RunServiceSimulation(metric, workload.tasks, workload.sim, config);
}

TEST(ServiceEquivalenceTest, FleetShapesMatchTheEngine) {
  for (const std::string& name : {std::string("steady_poisson"), std::string("bursty_hotspot")}) {
    ScenarioWorkload workload = Workload(name);
    SimResult sync_reference = ReferenceRun(GreedyMetric::kDpack, workload);
    struct Shape {
      size_t workers;
      size_t shards;
    };
    for (const Shape& shape : {Shape{2, 2}, Shape{2, 4}, Shape{4, 4}}) {
      std::string label = name + " workers=" + std::to_string(shape.workers) +
                          " shards=" + std::to_string(shape.shards);
      ServiceSimResult service =
          ServiceRun(GreedyMetric::kDpack, workload, shape.workers, shape.shards);
      EXPECT_EQ(service.sim.grant_trace, sync_reference.grant_trace) << label;
      EXPECT_EQ(service.sim.metrics.allocated(), sync_reference.metrics.allocated()) << label;
      EXPECT_EQ(service.sim.pending_at_end, sync_reference.pending_at_end) << label;
      EXPECT_EQ(service.counters.recoveries, 0u) << label;
      EXPECT_GT(service.counters.messages_sent, 0u) << label;
      EXPECT_GT(service.counters.score_rounds, 0u) << label;
    }
  }
}

TEST(ServiceEquivalenceTest, EveryMetricMatches) {
  ScenarioWorkload workload = Workload("diurnal_zipf");
  for (GreedyMetric metric : {GreedyMetric::kDpack, GreedyMetric::kDpf, GreedyMetric::kArea,
                              GreedyMetric::kFcfs}) {
    std::string label = "metric=" + std::to_string(static_cast<int>(metric));
    SimResult reference = ReferenceRun(metric, workload);
    ServiceSimResult service = ServiceRun(metric, workload, /*num_workers=*/2, /*num_shards=*/2);
    EXPECT_EQ(service.sim.grant_trace, reference.grant_trace) << label;
    EXPECT_EQ(service.sim.metrics.allocated(), reference.metrics.allocated()) << label;
  }
}

void ExpectSameCounters(const ServiceCounters& a, const ServiceCounters& b,
                        const std::string& label) {
  EXPECT_EQ(a.messages_sent, b.messages_sent) << label;
  EXPECT_EQ(a.messages_received, b.messages_received) << label;
  EXPECT_EQ(a.bytes_sent, b.bytes_sent) << label;
  EXPECT_EQ(a.bytes_received, b.bytes_received) << label;
  EXPECT_EQ(a.score_rounds, b.score_rounds) << label;
  EXPECT_EQ(a.recoveries, b.recoveries) << label;
  EXPECT_EQ(a.respawns, b.respawns) << label;
  EXPECT_EQ(a.state_replays, b.state_replays) << label;
  EXPECT_EQ(a.admission_rejects, b.admission_rejects) << label;
  // ring_stalls is deliberately excluded: it counts producer back-off, which depends on
  // scheduling timing, not on the protocol. Everything above is timing-independent.
}

// The counters are part of the deterministic surface (bench/baseline.json gates them):
// identical inputs must produce identical counter values, run to run — healthy and under a
// killed worker with either recovery policy. A kill leg used to race the victim's reply to
// the round it died in, so its legs run several times each.
TEST(ServiceEquivalenceTest, CountersAreDeterministic) {
  ScenarioWorkload workload = Workload("cohort_skew");
  ServiceSimResult first = ServiceRun(GreedyMetric::kDpack, workload, 4, 4);
  ServiceSimResult second = ServiceRun(GreedyMetric::kDpack, workload, 4, 4);
  ExpectSameCounters(first.counters, second.counters, "healthy");

  ScenarioWorkload steady = Workload("steady_poisson");
  SimResult reference = ReferenceRun(GreedyMetric::kDpack, steady);
  constexpr int kRepetitions = 12;
  struct Kill {
    uint64_t round;
    size_t worker;
  };
  // 1@2 is fig12's kill leg; 0@4 kills the first worker sent to, which has had the most
  // time to answer before the kill.
  for (const Kill& kill : {Kill{2, 1}, Kill{4, 0}}) {
    for (ServiceRecovery recovery : {ServiceRecovery::kReassign, ServiceRecovery::kRespawn}) {
      ServiceConfig config;
      config.num_workers = 4;
      config.num_shards = 4;
      config.recovery = recovery;
      config.kill_at_round = kill.round;
      config.kill_worker = kill.worker;
      std::string leg = "kill:" + std::to_string(kill.worker) + "@" +
                        std::to_string(kill.round) +
                        (recovery == ServiceRecovery::kReassign ? "/reassign" : "/respawn");
      ServiceSimResult base =
          RunServiceSimulation(GreedyMetric::kDpack, steady.tasks, steady.sim, config);
      ASSERT_EQ(base.sim.grant_trace, reference.grant_trace) << leg;
      ASSERT_EQ(base.counters.recoveries, 1u) << leg;
      for (int rep = 1; rep < kRepetitions; ++rep) {
        ServiceSimResult again =
            RunServiceSimulation(GreedyMetric::kDpack, steady.tasks, steady.sim, config);
        EXPECT_EQ(again.sim.grant_trace, reference.grant_trace) << leg << " rep " << rep;
        ExpectSameCounters(base.counters, again.counters, leg + " rep " + std::to_string(rep));
      }
    }
  }
}

// A daemon over more than two version-tree groups ships, each cycle, exactly the block
// diff a full version scan finds: newborn blocks (one arriving into the half-filled last
// group) as upserts, and every block a grant committed to (in the first group and in a far
// one) as a refresh. Observed on the wire: the daemon's sent messages and bytes per cycle
// equal the encoded size of the full scan's diff plus the task upserts and the request.
TEST(ServiceSchedulerTest, ManyGroupBlockDiffShipsTheFullScanDiff) {
  BlockManager blocks(Grid(), 10.0, 1e-7);
  for (int b = 0; b < 160; ++b) blocks.AddBlock(0.0, /*unlocked=*/true);
  BlockManager reference_blocks = blocks.Clone();
  ServiceConfig config;
  config.num_workers = 1;
  ServiceScheduler service(GreedyMetric::kDpack, config);
  GreedyScheduler reference(GreedyMetric::kDpack,
                            GreedySchedulerOptions{.eta = 0.05, .incremental = true});

  std::vector<uint64_t> scanned;    // The full scan's per-block versions.
  std::map<TaskId, size_t> sent;    // Task upserts already shipped.
  std::vector<Task> pending;
  TaskId next_id = 0;
  Rng rng(kSeed);
  for (int cycle = 0; cycle < 12; ++cycle) {
    if (cycle % 3 == 1) {
      blocks.AddBlock(cycle, /*unlocked=*/true);
      reference_blocks.AddBlock(cycle, /*unlocked=*/true);
    }
    BlockId last = static_cast<BlockId>(blocks.block_count()) - 1;
    for (int t = 0; t < 3; ++t) {
      Task task(next_id++, /*weight=*/1.0, Pool().capacity().Scaled(rng.Uniform(0.05, 0.3)));
      task.arrival_time = cycle;
      BlockId far = last - static_cast<BlockId>(rng.UniformInt(0, 2));
      task.blocks = t == 0 ? std::vector<BlockId>{2} : std::vector<BlockId>{far};
      pending.push_back(std::move(task));
    }

    // The wire the cycle must produce, from a full version scan.
    uint64_t expected_messages = 0;
    uint64_t expected_bytes = 0;
    auto expect = [&](bool sent_at_all, const ServiceMessage& message) {
      if (sent_at_all) {
        ++expected_messages;
        expected_bytes += EncodeMessage(message).size();
      }
    };
    if (cycle == 0) {  // The first cycle starts the fleet.
      BindMsg bind;
      bind.num_workers = 1;
      bind.num_shards = 1;
      bind.metric = GreedyMetric::kDpack;
      bind.eta = config.eta;
      bind.alpha_orders = Grid()->orders();
      expect(true, bind);
    }
    BlockUpsertMsg upserts;
    BlockRefreshMsg refreshes;
    for (size_t j = 0; j < blocks.block_count(); ++j) {
      const PrivacyBlock& b = blocks.block(static_cast<BlockId>(j));
      if (j >= scanned.size()) {
        upserts.entries.push_back({static_cast<int64_t>(j), b.AvailableCurve().epsilons(),
                                   b.capacity().epsilons()});
        scanned.push_back(b.version());
      } else if (b.version() != scanned[j]) {
        refreshes.entries.push_back({static_cast<int64_t>(j), b.AvailableCurve().epsilons()});
        scanned[j] = b.version();
      }
    }
    if (cycle > 0) {
      EXPECT_FALSE(refreshes.entries.empty()) << "cycle " << cycle;
    }
    TaskUpsertMsg tasks;
    ScoreRequestMsg request;
    request.round = service.counters().score_rounds + 1;
    request.shards = {0};
    for (const Task& task : pending) {
      request.batch_ids.push_back(task.id);
      if (sent.emplace(task.id, task.blocks.size()).second) {
        tasks.entries.push_back({task.id, task.weight, task.arrival_time,
                                 task.demand.epsilons(),
                                 std::vector<int64_t>(task.blocks.begin(), task.blocks.end())});
      }
    }
    expect(!upserts.entries.empty(), upserts);
    expect(!refreshes.entries.empty(), refreshes);
    expect(!tasks.entries.empty(), tasks);
    expect(true, request);

    uint64_t messages_before = service.counters().messages_sent;
    uint64_t bytes_before = service.counters().bytes_sent;
    std::vector<size_t> granted = service.ScheduleBatch(pending, blocks);
    EXPECT_EQ(service.counters().messages_sent - messages_before, expected_messages)
        << "cycle " << cycle;
    EXPECT_EQ(service.counters().bytes_sent - bytes_before, expected_bytes)
        << "cycle " << cycle;
    ASSERT_EQ(granted, reference.ScheduleBatch(pending, reference_blocks)) << "cycle " << cycle;
    EXPECT_FALSE(granted.empty()) << "cycle " << cycle;
    std::vector<Task> still;
    for (size_t i = 0; i < pending.size(); ++i) {
      if (std::find(granted.begin(), granted.end(), i) == granted.end()) {
        still.push_back(pending[i]);
      }
    }
    pending = std::move(still);
  }
  EXPECT_GT(blocks.block_count(), 2 * (size_t{1} << BlockVersionTree::kGroupShift));
  service.Shutdown();
}

// --- GrantService: the admission-controlled request API -----------------------------------

Task ProbeTask(int64_t id, double fraction, std::vector<BlockId> blocks) {
  Task task(id, /*weight=*/1.0, Pool().capacity().Scaled(fraction));
  task.blocks = std::move(blocks);
  task.arrival_time = 0.0;
  return task;
}

TEST(GrantServiceTest, BoundedQueueRejectsAndCounts) {
  BlockManager blocks(Grid(), 10.0, 1e-7);
  for (int b = 0; b < 2; ++b) blocks.AddBlock(0.0, /*unlocked=*/true);
  GrantServiceConfig config;
  config.service.num_workers = 2;
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
  GrantServiceConfig config;
  config.service.num_workers = 2;
  GrantService service(GreedyMetric::kDpack, &service_blocks, config);
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

// A deadline without a clock read: SIGALRM ends the test binary if the run has not finished
// after `seconds`. Healthy long-wait runs take milliseconds; ten lost wake-ups do not.
class AlarmDeadline {
 public:
  explicit AlarmDeadline(unsigned int seconds) { alarm(seconds); }
  ~AlarmDeadline() { alarm(0); }
  AlarmDeadline(const AlarmDeadline&) = delete;
  AlarmDeadline& operator=(const AlarmDeadline&) = delete;
};

// No lost wake-ups on the shm rings. Every wait in the fleet may last two seconds, and the
// hang budget is 1000 of them, so a message that fails to wake its reader costs a visible
// two-second stall, and ten of them fail the test: 30 cycles of sleep-polling at this
// setting would take minutes. With doorbells the run takes milliseconds. The grants must
// still be the in-process engine's, cycle by cycle.
TEST(GrantServiceTest, ChurnWithTwoSecondWaitsMatchesInProcess) {
  AlarmDeadline deadline(20);
  constexpr int kCycles = 30;
  // The churn stream: one block per cycle, a few tasks per cycle on the most recent blocks,
  // some of which time out and are evicted.
  std::vector<std::vector<Task>> arrivals(kCycles);
  Rng rng(kSeed);
  int64_t next_id = 0;
  for (int c = 0; c < kCycles; ++c) {
    int64_t count = rng.UniformInt(1, 4);
    for (int64_t i = 0; i < count; ++i) {
      Task task(next_id++, /*weight=*/1.0, Pool().capacity().Scaled(rng.Uniform(0.02, 0.3)));
      task.arrival_time = c;
      task.timeout = 4.0;
      task.num_recent_blocks = static_cast<size_t>(rng.UniformInt(1, 3));
      arrivals[static_cast<size_t>(c)].push_back(std::move(task));
    }
  }

  BlockManager service_blocks(Grid(), 10.0, 1e-7);
  GrantServiceConfig config;
  config.service.num_workers = 2;
  config.service.poll_sleep_us = 2'000'000;
  config.service.stall_budget = 1000;
  config.unlock_steps = 10;
  GrantService service(GreedyMetric::kDpack, &service_blocks, config);

  BlockManager reference_blocks(Grid(), 10.0, 1e-7);
  OnlineSchedulerConfig reference_config;
  reference_config.unlock_steps = 10;
  OnlineScheduler reference(
      std::make_unique<GreedyScheduler>(
          GreedyMetric::kDpack, GreedySchedulerOptions{.eta = 0.05, .incremental = true}),
      &reference_blocks, reference_config);

  size_t granted = 0;
  for (int c = 0; c < kCycles; ++c) {
    service_blocks.AddBlock(c);
    reference_blocks.AddBlock(c);
    for (const Task& task : arrivals[static_cast<size_t>(c)]) {
      ASSERT_TRUE(service.Submit(task));
      ASSERT_TRUE(reference.Submit(task));
    }
    service.RunCycle(c);
    reference.RunCycle(c);
    EXPECT_EQ(service.last_granted(), reference.last_granted()) << "cycle " << c;
    granted += service.last_granted().size();
  }
  EXPECT_GT(granted, 0u);
  EXPECT_GT(reference.metrics().evicted(), 0u);
  EXPECT_EQ(service.metrics().evicted(), reference.metrics().evicted());
  EXPECT_EQ(service.counters().recoveries, 0u);
  EXPECT_GE(service.counters().score_rounds, static_cast<uint64_t>(kCycles) / 2);
}

}  // namespace
}  // namespace dpack
