// Scenario generator determinism and registry contracts (ISSUE 5): same spec + seed must
// produce byte-identical task and block streams across repeated generations AND across a
// generate -> export -> reload cycle, every registered scenario must generate a well-formed
// workload (valid block references, arrival-sorted streams), and the registry must exercise
// the knob axes it claims (explicit lists, bursts, cohorts, timeouts, weighted tasks).

#include "src/workload/scenario.h"

#include <cmath>
#include <memory>
#include <set>
#include <sstream>

#include <gtest/gtest.h>

#include "src/core/scheduler.h"
#include "src/orchestrator/checkpoint.h"
#include "src/sim/sim_driver.h"
#include "src/workload/curve_pool.h"
#include "src/workload/trace_io.h"

namespace dpack {
namespace {

AlphaGridPtr Grid() { return AlphaGrid::Default(); }

const CurvePool& Pool() {
  static const CurvePool pool(Grid(), BlockCapacityCurve(Grid(), 10.0, 1e-7));
  return pool;
}

// Exact (bit-level) task equality: the determinism the differential harness builds on.
void ExpectTasksIdentical(const std::vector<Task>& a, const std::vector<Task>& b,
                          const std::string& label) {
  ASSERT_EQ(a.size(), b.size()) << label;
  for (size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a[i].id, b[i].id) << label << " task " << i;
    EXPECT_EQ(a[i].weight, b[i].weight) << label << " task " << i;
    EXPECT_EQ(a[i].arrival_time, b[i].arrival_time) << label << " task " << i;
    // Infinity compares equal to itself, so == covers the no-timeout case too.
    EXPECT_EQ(a[i].timeout, b[i].timeout) << label << " task " << i;
    EXPECT_EQ(a[i].blocks, b[i].blocks) << label << " task " << i;
    EXPECT_EQ(a[i].num_recent_blocks, b[i].num_recent_blocks) << label << " task " << i;
    EXPECT_EQ(a[i].demand.epsilons(), b[i].demand.epsilons()) << label << " task " << i;
  }
}

TEST(ScenarioDeterminismTest, SameSpecAndSeedIsByteIdenticalAcrossGenerations) {
  for (const std::string& name : ScenarioRegistryNames()) {
    ScenarioSpec spec = ScenarioByName(name, /*seed=*/42);
    ScenarioWorkload first = GenerateScenario(Pool(), spec);
    ScenarioWorkload second = GenerateScenario(Pool(), spec);
    ExpectTasksIdentical(first.tasks, second.tasks, name);
    EXPECT_EQ(first.sim.block_arrival_times, second.sim.block_arrival_times) << name;
    EXPECT_EQ(first.sim.unlock_steps, second.sim.unlock_steps) << name;
  }
}

TEST(ScenarioDeterminismTest, DifferentSeedsDiverge) {
  // Not a tautology: a generator that ignored its seed would still pass determinism.
  ScenarioWorkload a = GenerateScenario(Pool(), ScenarioByName("steady_poisson", 1));
  ScenarioWorkload b = GenerateScenario(Pool(), ScenarioByName("steady_poisson", 2));
  bool identical = a.tasks.size() == b.tasks.size();
  if (identical) {
    for (size_t i = 0; i < a.tasks.size(); ++i) {
      if (a.tasks[i].arrival_time != b.tasks[i].arrival_time ||
          a.tasks[i].demand.epsilons() != b.tasks[i].demand.epsilons()) {
        identical = false;
        break;
      }
    }
  }
  EXPECT_FALSE(identical);
}

TEST(ScenarioDeterminismTest, ExportReloadCycleIsExact) {
  // generate -> export -> reload preserves every field the stream is defined by, including
  // explicit block lists (the trace_io v2 column), so a scenario shipped as a portable CSV
  // trace replays the exact same workload.
  for (const std::string& name : ScenarioRegistryNames()) {
    ScenarioWorkload generated = GenerateScenario(Pool(), ScenarioByName(name, /*seed=*/7));
    std::stringstream buffer;
    ASSERT_TRUE(WriteTrace(buffer, generated.tasks, Grid())) << name;
    std::vector<Task> reloaded = ReadTrace(buffer, Grid());
    ExpectTasksIdentical(generated.tasks, reloaded, name);
  }
}

TEST(ScenarioDeterminismTest, ReExportIsByteIdentical) {
  // export(reload(export(w))) == export(w): the CSV encoding itself is canonical.
  ScenarioWorkload generated = GenerateScenario(Pool(), ScenarioByName("cohort_skew", 11));
  std::stringstream first;
  ASSERT_TRUE(WriteTrace(first, generated.tasks, Grid()));
  std::vector<Task> reloaded = ReadTrace(first, Grid());
  std::stringstream second;
  ASSERT_TRUE(WriteTrace(second, reloaded, Grid()));
  EXPECT_EQ(first.str(), second.str());
}

TEST(ScenarioRegistryTest, NamesAreUniqueAndResolvable) {
  std::vector<std::string> names = ScenarioRegistryNames();
  ASSERT_GE(names.size(), 5u);
  std::set<std::string> unique(names.begin(), names.end());
  EXPECT_EQ(unique.size(), names.size());
  for (const std::string& name : names) {
    ScenarioSpec spec = ScenarioByName(name, /*seed=*/3);
    EXPECT_EQ(spec.name, name);
    EXPECT_EQ(spec.seed, 3u);
  }
}

TEST(ScenarioRegistryTest, EveryScenarioGeneratesAWellFormedWorkload) {
  for (const std::string& name : ScenarioRegistryNames()) {
    ScenarioWorkload w = GenerateScenario(Pool(), ScenarioByName(name, /*seed=*/5));
    EXPECT_GT(w.tasks.size(), 10u) << name;
    ASSERT_FALSE(w.sim.block_arrival_times.empty()) << name;
    EXPECT_EQ(w.sim.num_blocks, w.sim.block_arrival_times.size()) << name;
    for (size_t b = 1; b < w.sim.block_arrival_times.size(); ++b) {
      EXPECT_LE(w.sim.block_arrival_times[b - 1], w.sim.block_arrival_times[b]) << name;
    }
    double prev_arrival = 0.0;
    for (const Task& task : w.tasks) {
      EXPECT_GE(task.arrival_time, prev_arrival) << name << " task " << task.id;
      prev_arrival = task.arrival_time;
      EXPECT_GT(task.weight, 0.0) << name;
      // Exactly one block-request convention per task: an explicit list (and no recent
      // count), or a positive most-recent count (and no list).
      EXPECT_EQ(task.blocks.empty(), task.num_recent_blocks > 0) << name;
      for (size_t b = 0; b < task.blocks.size(); ++b) {
        ASSERT_GE(task.blocks[b], 0) << name;
        ASSERT_LT(static_cast<size_t>(task.blocks[b]), w.sim.num_blocks) << name;
        if (b > 0) {
          EXPECT_LT(task.blocks[b - 1], task.blocks[b]) << name;  // Sorted, distinct.
        }
        // An explicit reference is only valid if the block has arrived by the task's
        // instant (block events fire first at equal timestamps).
        EXPECT_LE(w.sim.block_arrival_times[static_cast<size_t>(task.blocks[b])],
                  task.arrival_time)
            << name << " task " << task.id;
      }
    }
  }
}

TEST(ScenarioRegistryTest, RegistryCoversTheClaimedStressAxes) {
  // The registry's value is diversity; these assertions keep future edits from quietly
  // collapsing the axes the matrix suite believes it is sweeping.
  ScenarioWorkload hotspot = GenerateScenario(Pool(), ScenarioByName("bursty_hotspot", 5));
  size_t explicit_lists = 0;
  size_t finite_timeouts = 0;
  size_t weighted = 0;
  for (const Task& task : hotspot.tasks) {
    explicit_lists += task.blocks.empty() ? 0 : 1;
    finite_timeouts += std::isinf(task.timeout) ? 0 : 1;
    weighted += task.weight != 1.0 ? 1 : 0;
  }
  EXPECT_GT(explicit_lists, 0u);
  EXPECT_GT(finite_timeouts, 0u);
  EXPECT_GT(weighted, 0u);

  ScenarioWorkload cohorts = GenerateScenario(Pool(), ScenarioByName("cohort_skew", 5));
  std::set<double> cohort_instants(cohorts.sim.block_arrival_times.begin(),
                                   cohorts.sim.block_arrival_times.end());
  EXPECT_LT(cohort_instants.size(), cohorts.sim.block_arrival_times.size());

  ScenarioWorkload jittered = GenerateScenario(Pool(), ScenarioByName("jittered_heavy", 5));
  bool off_grid = false;
  for (size_t b = 0; b < jittered.sim.block_arrival_times.size(); ++b) {
    if (jittered.sim.block_arrival_times[b] != static_cast<double>(b)) {
      off_grid = true;
    }
  }
  EXPECT_TRUE(off_grid);
}

TEST(ScenarioRegistryTest, ChurnExhaustsBlocksWhileStillGranting) {
  // retirement_churn must earn its shape: at some cycle boundary it holds blocks that can
  // never change again (fully unlocked and Exhausted()), and the run grants more tasks after
  // that boundary. The e2e churn stream scales this scenario up by name.
  ScenarioWorkload workload = GenerateScenario(Pool(), ScenarioByName("retirement_churn", 1234));
  auto make_scheduler = [] {
    return std::make_unique<GreedyScheduler>(
        GreedyMetric::kDpack, GreedySchedulerOptions{.eta = 0.05, .incremental = true});
  };
  SimResult full = RunOnlineSimulation(make_scheduler(), workload.tasks, workload.sim);
  for (size_t k = 1; k < full.cycles_run; ++k) {
    SimConfig sim = workload.sim;
    sim.stop_after_cycles = k;
    SimResult prefix = RunOnlineSimulation(make_scheduler(), workload.tasks, sim);
    ASSERT_TRUE(prefix.snapshot.has_value()) << "cycle " << k;
    BlockManager blocks = RestoreBlockManager(*prefix.snapshot);
    size_t spent = 0;
    for (size_t id = 0; id < blocks.block_count(); ++id) {
      const PrivacyBlock& block = blocks.block(static_cast<BlockId>(id));
      spent += block.unlocked_fraction() >= 1.0 && block.Exhausted() ? 1 : 0;
    }
    if (spent > 0) {
      EXPECT_LT(spent, blocks.block_count()) << "cycle " << k;
      EXPECT_GT(full.metrics.allocated(), prefix.metrics.allocated()) << "cycle " << k;
      return;
    }
  }
  ADD_FAILURE() << "retirement_churn never exhausted a fully unlocked block";
}

TEST(ScenarioRegistryDeathTest, UnknownNameAborts) {
  EXPECT_DEATH(ScenarioByName("no_such_scenario"), "unknown scenario");
}

}  // namespace
}  // namespace dpack
