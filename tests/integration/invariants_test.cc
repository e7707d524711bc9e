// Parameterized system-level invariants: for every scheduler, over randomized workloads,
// scheduling never violates the privacy filters, never double-allocates, and records
// consistent metrics.

#include <set>

#include <gtest/gtest.h>

#include "src/dpack/dpack.h"

namespace dpack {
namespace {

struct InvariantCase {
  SchedulerKind kind;
  uint64_t seed;
};

std::string CaseName(const testing::TestParamInfo<InvariantCase>& info) {
  return SchedulerKindName(info.param.kind) + "_seed" + std::to_string(info.param.seed);
}

class SchedulerInvariantsTest : public testing::TestWithParam<InvariantCase> {
 protected:
  SchedulerInvariantsTest()
      : grid_(AlphaGrid::Default()),
        capacity_(BlockCapacityCurve(grid_, 10.0, 1e-7)),
        pool_(grid_, capacity_) {}

  std::vector<Task> RandomWorkload(uint64_t seed, size_t n) {
    Rng rng(seed);
    std::vector<Task> tasks;
    for (size_t i = 0; i < n; ++i) {
      size_t curve = static_cast<size_t>(
          rng.UniformInt(0, static_cast<int64_t>(pool_.size()) - 1));
      RdpCurve demand = pool_.ScaledToEpsMin(curve, rng.Uniform(0.01, 0.5));
      Task t(static_cast<TaskId>(i), rng.Bernoulli(0.3) ? rng.Uniform(1.0, 10.0) : 1.0,
             std::move(demand));
      t.num_recent_blocks = static_cast<size_t>(rng.UniformInt(1, 6));
      t.arrival_time = rng.Uniform(0.0, 8.0);
      tasks.push_back(std::move(t));
    }
    return tasks;
  }

  AlphaGridPtr grid_;
  RdpCurve capacity_;
  CurvePool pool_;
};

TEST_P(SchedulerInvariantsTest, OfflineGrantsRespectFilters) {
  std::vector<Task> tasks = RandomWorkload(GetParam().seed, 60);
  BlockManager blocks(grid_, 10.0, 1e-7);
  for (int b = 0; b < 8; ++b) {
    blocks.AddBlock(0.0, /*unlocked=*/true);
  }
  for (Task& t : tasks) {
    t.blocks = blocks.MostRecentBlocks(t.num_recent_blocks);
  }
  PkOptions opts;
  opts.time_limit_seconds = 10.0;
  std::unique_ptr<Scheduler> scheduler = CreateScheduler(GetParam().kind, opts);
  std::vector<size_t> granted = scheduler->ScheduleBatch(tasks, blocks);

  // No duplicate grants; granted indices valid.
  std::set<size_t> unique(granted.begin(), granted.end());
  EXPECT_EQ(unique.size(), granted.size());
  for (size_t idx : granted) {
    EXPECT_LT(idx, tasks.size());
  }
  // Every touched block still certifies its guarantee at some usable order, and consumption
  // equals the sum of granted demands.
  for (size_t j = 0; j < blocks.block_count(); ++j) {
    const PrivacyBlock& block = blocks.block(static_cast<BlockId>(j));
    RdpCurve expected(grid_);
    for (size_t idx : granted) {
      for (BlockId b : tasks[idx].blocks) {
        if (static_cast<size_t>(b) == j) {
          expected.Accumulate(tasks[idx].demand);
        }
      }
    }
    for (size_t a = 0; a < grid_->size(); ++a) {
      EXPECT_NEAR(block.consumed().epsilon(a), expected.epsilon(a), 1e-9);
    }
    if (!expected.IsZero()) {
      bool certified = false;
      for (size_t a = 0; a < grid_->size(); ++a) {
        if (block.capacity().epsilon(a) > 0.0 &&
            block.consumed().epsilon(a) <= block.capacity().epsilon(a) + 1e-9) {
          certified = true;
        }
      }
      EXPECT_TRUE(certified) << "block " << j << " violates its filter";
    }
  }
}

TEST_P(SchedulerInvariantsTest, OnlineMetricsAreConsistent) {
  std::vector<Task> tasks = RandomWorkload(GetParam().seed + 100, 80);
  SimConfig sim;
  sim.num_blocks = 8;
  sim.unlock_steps = 5;
  PkOptions opts;
  opts.time_limit_seconds = 10.0;
  SimResult result =
      RunOnlineSimulation(CreateScheduler(GetParam().kind, opts), tasks, sim);
  EXPECT_EQ(result.metrics.submitted(), tasks.size());
  EXPECT_EQ(result.metrics.allocated() + result.metrics.evicted() + result.pending_at_end,
            tasks.size());
  EXPECT_EQ(result.metrics.delays().count(), result.metrics.allocated());
  if (result.metrics.allocated() > 0) {
    EXPECT_GE(result.metrics.delays().Quantile(0.0), 0.0);
  }
  EXPECT_LE(result.metrics.allocated_weight(), result.metrics.submitted_weight() + 1e-9);
}

TEST_P(SchedulerInvariantsTest, GrantsAreMonotoneInBudget) {
  // Doubling every block's budget (two managers: eps_g 5 vs 10) never reduces the number of
  // allocated tasks for greedy schedulers on the same workload.
  if (GetParam().kind == SchedulerKind::kOptimal) {
    GTEST_SKIP() << "Optimal retries can reshuffle; monotonicity holds but is slow to check";
  }
  std::vector<Task> tasks = RandomWorkload(GetParam().seed + 200, 50);
  auto run = [&](double eps_g) {
    BlockManager blocks(grid_, eps_g, 1e-7);
    for (int b = 0; b < 6; ++b) {
      blocks.AddBlock(0.0, true);
    }
    std::vector<Task> copy = tasks;
    for (Task& t : copy) {
      t.blocks = blocks.MostRecentBlocks(t.num_recent_blocks);
    }
    return CreateScheduler(GetParam().kind)->ScheduleBatch(copy, blocks).size();
  };
  EXPECT_LE(run(6.0), run(12.0) + 2);  // Allow small greedy non-monotonicity slack.
}

INSTANTIATE_TEST_SUITE_P(
    AllSchedulers, SchedulerInvariantsTest,
    testing::Values(InvariantCase{SchedulerKind::kDpack, 1},
                    InvariantCase{SchedulerKind::kDpack, 2},
                    InvariantCase{SchedulerKind::kDpack, 3},
                    InvariantCase{SchedulerKind::kDpf, 1},
                    InvariantCase{SchedulerKind::kDpf, 2},
                    InvariantCase{SchedulerKind::kDpf, 3},
                    InvariantCase{SchedulerKind::kArea, 1},
                    InvariantCase{SchedulerKind::kArea, 2},
                    InvariantCase{SchedulerKind::kFcfs, 1},
                    InvariantCase{SchedulerKind::kFcfs, 2},
                    InvariantCase{SchedulerKind::kOptimal, 1},
                    InvariantCase{SchedulerKind::kOptimal, 2}),
    CaseName);

}  // namespace
}  // namespace dpack
