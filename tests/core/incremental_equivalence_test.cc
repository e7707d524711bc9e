// Differential suite for the incremental scheduling engine: across randomized online
// traces the engine (IncrementalEngine) must grant exactly the same task sets as the
// recompute-everything reference path, for every greedy metric. The traces exercise
// the full protocol the caches depend on: commits (via grants), stepwise budget unlocking,
// online block arrival, task arrival and eviction, late block resolution, and weighted as
// well as uniform-weight batches; some legs go beyond it, with reused ids and with batches
// that break the queue's order.

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdlib>
#include <memory>
#include <vector>

#include "src/block/block_manager.h"
#include "src/common/rng.h"
#include "src/core/scheduler.h"
#include "src/sim/sim_driver.h"
#include "src/workload/curve_pool.h"
#include "src/workload/microbenchmark.h"

namespace dpack {
namespace {

constexpr double kEpsG = 10.0;
constexpr double kDeltaG = 1e-7;

AlphaGridPtr Grid() { return AlphaGrid::Default(); }

struct TraceOptions {
  uint64_t seed = 1;
  size_t cycles = 40;
  size_t initial_blocks = 3;     // Unlocked at t = 0.
  size_t online_blocks = 20;     // One arrives per cycle, locked, unlocking over time.
  int64_t unlock_steps = 10;
  double max_tasks_per_cycle = 4.0;
  bool weighted = false;         // Random weights (FPTAS path) vs all-1 (max-cardinality).
  double evict_probability = 0.1;  // Per-cycle chance of dropping one random pending task.
  double unresolved_probability = 0.1;  // Tasks arriving before resolving their blocks.
  // Id reuse, which neither OnlineScheduler nor the socket edge rejects. Per cycle, with
  // these chances: a new task takes the id and blocks of a task the previous cycle granted;
  // the newest pending task times out and a new task takes its id and blocks. Either new
  // task has its own demand and weight, and its block list is a copy in its own buffer.
  double reuse_granted_probability = 0.0;
  double reuse_timed_out_probability = 0.0;
  // Batches that break the queue's order, which OnlineScheduler never produces. Per cycle,
  // with this chance, one of: a pending task moves to a random position; an arrival is put
  // ahead of pending tasks; a task leaves from mid-queue and the next arrival takes its id.
  double reorder_probability = 0.0;
  // Demands as a random fraction of the capacity at each order, instead of one fraction of
  // the whole curve: requesters then differ in which orders they fit, so a requester column
  // holding another task's demand can move a block's best alpha.
  bool shaped_demands = false;
};

// Runs the same randomized trace through the recompute reference and the incremental
// engine, each operating on an identically-constructed block manager, asserting identical
// grants every cycle.
void RunDifferentialTrace(GreedyMetric metric, const TraceOptions& options) {
  GreedyScheduler recompute(metric, GreedySchedulerOptions{.eta = 0.05, .incremental = false});
  GreedyScheduler engine(metric, GreedySchedulerOptions{.eta = 0.05, .incremental = true});
  BlockManager rec_blocks(Grid(), kEpsG, kDeltaG);
  BlockManager engine_blocks(Grid(), kEpsG, kDeltaG);
  for (size_t b = 0; b < options.initial_blocks; ++b) {
    rec_blocks.AddBlock(0.0, /*unlocked=*/true);
    engine_blocks.AddBlock(0.0, /*unlocked=*/true);
  }

  Rng rng(options.seed);
  RdpCurve capacity = BlockCapacityCurve(Grid(), kEpsG, kDeltaG);
  std::vector<Task> pending;
  TaskId next_id = 0;
  std::vector<Task> just_granted;  // Copies of the previous cycle's grants.
  auto new_task = [&](TaskId id, double now) {
    double weight = options.weighted ? rng.Uniform(0.5, 8.0) : 1.0;
    RdpCurve demand = capacity.Scaled(rng.Uniform(0.02, 0.5));
    if (options.shaped_demands) {
      std::vector<double> eps = capacity.epsilons();
      for (double& e : eps) {
        e *= rng.Uniform(0.02, 0.5);
      }
      demand = RdpCurve(Grid(), eps);
    }
    Task task(id, weight, std::move(demand));
    task.arrival_time = now;
    return task;
  };
  // A new task with `id` on random blocks, or (unresolved) on the most recent ones.
  auto arrival = [&](TaskId id, double now) {
    Task task = new_task(id, now);
    if (rng.Bernoulli(options.unresolved_probability)) {
      task.num_recent_blocks = static_cast<size_t>(rng.UniformInt(1, 3));
    } else {
      int64_t most = std::min<int64_t>(4, static_cast<int64_t>(rec_blocks.block_count()));
      size_t count = static_cast<size_t>(rng.UniformInt(1, most));
      for (size_t idx : rng.SampleWithoutReplacement(rec_blocks.block_count(), count)) {
        task.blocks.push_back(static_cast<BlockId>(idx));
      }
    }
    return task;
  };
  // A new task with `old`'s id and a copy of its block request.
  auto reuse_id_of = [&](const Task& old, double now) {
    Task task = new_task(old.id, now);
    task.blocks = old.blocks;
    task.num_recent_blocks = old.num_recent_blocks;
    return task;
  };

  for (size_t cycle = 0; cycle < options.cycles; ++cycle) {
    double now = static_cast<double>(cycle);
    // Online block arrival: one per cycle while the arrival process lasts.
    if (cycle > 0 && cycle <= options.online_blocks) {
      rec_blocks.AddBlock(now);
      engine_blocks.AddBlock(now);
    }
    rec_blocks.UpdateUnlocks(now, 1.0, options.unlock_steps);
    engine_blocks.UpdateUnlocks(now, 1.0, options.unlock_steps);

    // Late resolution: unresolved tasks pick up the most recent blocks once any exist.
    for (Task& task : pending) {
      if (task.blocks.empty() && task.num_recent_blocks > 0) {
        task.blocks = rec_blocks.MostRecentBlocks(task.num_recent_blocks);
      }
    }

    // Random eviction (timeout stand-in): drops a pending task without any commit, so only
    // the walk for departures can catch it.
    if (!pending.empty() && rng.Bernoulli(options.evict_probability)) {
      size_t victim = static_cast<size_t>(
          rng.UniformInt(0, static_cast<int64_t>(pending.size()) - 1));
      pending.erase(pending.begin() + static_cast<std::ptrdiff_t>(victim));
    }

    // Id reuse: the new tasks join the queue ahead of this cycle's other arrivals. Traces
    // without reuse draw nothing here, so their streams stay as they were.
    if (options.reuse_timed_out_probability > 0.0 && !pending.empty() &&
        rng.Bernoulli(options.reuse_timed_out_probability)) {
      pending.back() = reuse_id_of(pending.back(), now);
    }
    if (options.reuse_granted_probability > 0.0 && !just_granted.empty() &&
        rng.Bernoulli(options.reuse_granted_probability)) {
      size_t pick = static_cast<size_t>(
          rng.UniformInt(0, static_cast<int64_t>(just_granted.size()) - 1));
      pending.push_back(reuse_id_of(just_granted[pick], now));
    }

    // Reorders. Traces without them draw nothing here, so their streams stay as they were.
    if (options.reorder_probability > 0.0 && pending.size() >= 2 &&
        rng.Bernoulli(options.reorder_probability)) {
      auto position = [&](size_t bound) {  // Uniform in [0, bound].
        return static_cast<std::ptrdiff_t>(rng.UniformInt(0, static_cast<int64_t>(bound)));
      };
      switch (rng.UniformInt(0, 2)) {
        case 0: {  // Moves one task, so its buffer travels with it.
          auto from = pending.begin() + position(pending.size() - 1);
          auto to = pending.begin() + position(pending.size() - 1);
          if (from < to) {
            std::rotate(from, from + 1, to + 1);
          } else {
            std::rotate(to, from, from + 1);
          }
          break;
        }
        case 1:  // An arrival ahead of at least one pending task.
          pending.insert(pending.begin() + position(pending.size() - 1), arrival(next_id++, now));
          break;
        default: {  // Not the last task, so the arrival lands after tasks that follow it.
          auto victim = pending.begin() + position(pending.size() - 2);
          TaskId id = victim->id;
          pending.erase(victim);
          pending.push_back(arrival(id, now));
          break;
        }
      }
    }

    // New arrivals.
    int64_t arrivals = rng.UniformInt(0, static_cast<int64_t>(options.max_tasks_per_cycle));
    for (int64_t k = 0; k < arrivals; ++k) {
      pending.push_back(arrival(next_id++, now));
    }

    std::vector<size_t> rec_granted = recompute.ScheduleBatch(pending, rec_blocks);
    std::vector<size_t> granted = engine.ScheduleBatch(pending, engine_blocks);
    ASSERT_EQ(granted, rec_granted) << "metric=" << static_cast<int>(metric)
                                    << " seed=" << options.seed << " cycle=" << cycle;

    // Retire grants exactly as OnlineScheduler does (order-preserving compaction).
    std::vector<bool> taken(pending.size(), false);
    just_granted.clear();
    for (size_t idx : rec_granted) {
      taken[idx] = true;
      just_granted.push_back(pending[idx]);
    }
    std::vector<Task> rest;
    rest.reserve(pending.size());
    for (size_t i = 0; i < pending.size(); ++i) {
      if (!taken[i]) {
        rest.push_back(std::move(pending[i]));
      }
    }
    pending = std::move(rest);
  }

  // Both managers consumed bit-identical budget.
  ASSERT_EQ(engine_blocks.block_count(), rec_blocks.block_count());
  for (size_t j = 0; j < rec_blocks.block_count(); ++j) {
    const RdpCurve& a = engine_blocks.block(static_cast<BlockId>(j)).consumed();
    const RdpCurve& b = rec_blocks.block(static_cast<BlockId>(j)).consumed();
    for (size_t alpha = 0; alpha < a.size(); ++alpha) {
      ASSERT_EQ(a.epsilon(alpha), b.epsilon(alpha)) << "block " << j << " order " << alpha;
    }
  }

  // The traces must have actually exercised the rejection memos, not fallen back every
  // cycle.
  ASSERT_NE(engine.engine(), nullptr);
  const ScheduleContextStats& stats = engine.engine()->stats();
  EXPECT_EQ(stats.full_recomputes, 0u);
  EXPECT_GT(stats.tasks_reused, 0u);
}

class IncrementalEquivalenceTest : public testing::TestWithParam<GreedyMetric> {};

TEST_P(IncrementalEquivalenceTest, UniformWeightTraces) {
  for (uint64_t seed : {1u, 7u, 17u, 23u}) {
    TraceOptions options;
    options.seed = seed;
    options.weighted = false;
    RunDifferentialTrace(GetParam(), options);
  }
}

TEST_P(IncrementalEquivalenceTest, WeightedTraces) {
  for (uint64_t seed : {5u, 11u}) {
    TraceOptions options;
    options.seed = seed;
    options.weighted = true;
    RunDifferentialTrace(GetParam(), options);
  }
}

TEST_P(IncrementalEquivalenceTest, WeightedHighContentionTrace) {
  // Weighted scoring (FPTAS best-alpha path) under heavy contention: most of the queue
  // persists across cycles while grants keep dirtying the few contended blocks.
  TraceOptions options;
  options.seed = 29;
  options.weighted = true;
  options.initial_blocks = 2;
  options.online_blocks = 3;
  options.max_tasks_per_cycle = 8.0;
  options.cycles = 50;
  RunDifferentialTrace(GetParam(), options);
}

TEST_P(IncrementalEquivalenceTest, HighContentionTrace) {
  // Few blocks, many tasks: most of the queue stays pending, maximizing cache reuse while
  // grants keep dirtying the contended blocks.
  TraceOptions options;
  options.seed = 13;
  options.initial_blocks = 2;
  options.online_blocks = 3;
  options.max_tasks_per_cycle = 8.0;
  options.cycles = 50;
  RunDifferentialTrace(GetParam(), options);
}

// The reuse traces' seed count: DPACK_FUZZ_ITERATIONS (the fuzz depth shared with
// scenario_fuzz_test, default 100) halved, plus one: 51 seeds by default.
uint64_t ReuseSeeds() {
  const char* env = std::getenv("DPACK_FUZZ_ITERATIONS");
  long long iterations = env != nullptr ? std::atoll(env) : 0;
  return static_cast<uint64_t>(iterations > 0 ? iterations : 100) / 2 + 1;
}

TEST_P(IncrementalEquivalenceTest, IdReusedRightAfterItsGrant) {
  for (uint64_t seed = 1; seed <= ReuseSeeds(); ++seed) {
    TraceOptions options;
    options.seed = seed;
    options.reuse_granted_probability = 0.5;
    options.shaped_demands = true;
    ASSERT_NO_FATAL_FAILURE(RunDifferentialTrace(GetParam(), options));
  }
}

TEST_P(IncrementalEquivalenceTest, BatchesThatBreakTheQueueOrder) {
  for (uint64_t seed = 1; seed <= ReuseSeeds(); ++seed) {
    TraceOptions options;
    options.seed = seed;
    options.reorder_probability = 0.5;
    options.shaped_demands = true;
    ASSERT_NO_FATAL_FAILURE(RunDifferentialTrace(GetParam(), options));
  }
}

TEST_P(IncrementalEquivalenceTest, IdOfTheNewestTaskReusedAsItTimesOut) {
  for (uint64_t seed = 1; seed <= ReuseSeeds(); ++seed) {
    TraceOptions options;
    options.seed = seed;
    options.reuse_timed_out_probability = 0.5;
    options.shaped_demands = true;
    ASSERT_NO_FATAL_FAILURE(RunDifferentialTrace(GetParam(), options));
  }
}

INSTANTIATE_TEST_SUITE_P(AllMetrics, IncrementalEquivalenceTest,
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

// End-to-end: the full simulator pipeline (OnlineScheduler + sim driver + microbenchmark
// workload) reports identical allocation outcomes for both engines.
TEST(IncrementalEquivalenceTest, SimulatorEndToEndMatchesRecompute) {
  CurvePool pool(Grid(), BlockCapacityCurve(Grid(), kEpsG, kDeltaG));
  MicrobenchmarkConfig workload;
  workload.num_tasks = 150;
  workload.num_blocks = 10;
  workload.mu_blocks = 3.0;
  workload.sigma_blocks = 2.0;
  workload.sigma_alpha = 3.0;
  workload.eps_min = 0.05;
  workload.seed = 3;

  for (GreedyMetric metric : {GreedyMetric::kDpack, GreedyMetric::kDpf, GreedyMetric::kArea,
                              GreedyMetric::kFcfs}) {
    std::vector<Task> tasks = GenerateMicrobenchmark(pool, workload);
    // Spread arrivals so multiple cycles run with a persistent queue, and switch the
    // offline-style explicit block lists to online-style most-recent requests (the offline
    // ids may not have arrived yet when the task does).
    for (size_t i = 0; i < tasks.size(); ++i) {
      tasks[i].arrival_time = static_cast<double>(i % 20);
      tasks[i].num_recent_blocks = std::max<size_t>(1, tasks[i].blocks.size() % 4);
      tasks[i].blocks.clear();
    }
    SimConfig sim;
    sim.num_blocks = 10;
    sim.unlock_steps = 10;

    SimResult inc = RunOnlineSimulation(
        std::make_unique<GreedyScheduler>(
            metric, GreedySchedulerOptions{.eta = 0.05, .incremental = true}),
        tasks, sim);
    SimResult rec = RunOnlineSimulation(
        std::make_unique<GreedyScheduler>(
            metric, GreedySchedulerOptions{.eta = 0.05, .incremental = false}),
        tasks, sim);

    EXPECT_EQ(inc.metrics.allocated(), rec.metrics.allocated());
    EXPECT_EQ(inc.metrics.allocated_weight(), rec.metrics.allocated_weight());
    EXPECT_EQ(inc.pending_at_end, rec.pending_at_end);
  }
}

}  // namespace
}  // namespace dpack
