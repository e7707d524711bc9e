#include "src/workload/microbenchmark.h"

#include <set>

#include <gtest/gtest.h>

#include "src/workload/workload_stats.h"

namespace dpack {
namespace {

class MicrobenchmarkTest : public testing::Test {
 protected:
  MicrobenchmarkTest()
      : grid_(AlphaGrid::Default()),
        capacity_(BlockCapacityCurve(grid_, 10.0, 1e-7)),
        pool_(grid_, capacity_) {}

  AlphaGridPtr grid_;
  RdpCurve capacity_;
  CurvePool pool_;
};

TEST_F(MicrobenchmarkTest, GeneratesRequestedCount) {
  MicrobenchmarkConfig config;
  config.num_tasks = 100;
  std::vector<Task> tasks = GenerateMicrobenchmark(pool_, config);
  EXPECT_EQ(tasks.size(), 100u);
  for (const Task& t : tasks) {
    EXPECT_DOUBLE_EQ(t.weight, 1.0);
    EXPECT_DOUBLE_EQ(t.arrival_time, 0.0);
    EXPECT_FALSE(t.blocks.empty());
  }
}

TEST_F(MicrobenchmarkTest, ZeroSigmaBlocksGivesConstantBlockCount) {
  MicrobenchmarkConfig config;
  config.num_tasks = 50;
  config.mu_blocks = 10.0;
  config.sigma_blocks = 0.0;
  std::vector<Task> tasks = GenerateMicrobenchmark(pool_, config);
  for (const Task& t : tasks) {
    EXPECT_EQ(t.blocks.size(), 10u);
  }
}

TEST_F(MicrobenchmarkTest, SigmaBlocksIncreasesSpread) {
  MicrobenchmarkConfig narrow;
  narrow.num_tasks = 400;
  narrow.sigma_blocks = 0.0;
  MicrobenchmarkConfig wide = narrow;
  wide.sigma_blocks = 3.0;
  WorkloadStats s_narrow =
      ComputeWorkloadStats(GenerateMicrobenchmark(pool_, narrow), capacity_);
  WorkloadStats s_wide = ComputeWorkloadStats(GenerateMicrobenchmark(pool_, wide), capacity_);
  EXPECT_GT(s_wide.blocks_per_task.stddev(), s_narrow.blocks_per_task.stddev());
}

TEST_F(MicrobenchmarkTest, ZeroSigmaAlphaConcentratesOnCenterBucket) {
  MicrobenchmarkConfig config;
  config.num_tasks = 100;
  config.sigma_alpha = 0.0;
  std::vector<Task> tasks = GenerateMicrobenchmark(pool_, config);
  WorkloadStats stats = ComputeWorkloadStats(tasks, capacity_);
  size_t idx5 = grid_->IndexOf(5.0);
  EXPECT_EQ(stats.best_alpha_counts[idx5], tasks.size());
}

TEST_F(MicrobenchmarkTest, SigmaAlphaSpreadsBestAlphas) {
  MicrobenchmarkConfig config;
  config.num_tasks = 500;
  config.sigma_alpha = 4.0;
  std::vector<Task> tasks = GenerateMicrobenchmark(pool_, config);
  WorkloadStats stats = ComputeWorkloadStats(tasks, capacity_);
  size_t distinct = 0;
  for (size_t count : stats.best_alpha_counts) {
    if (count > 0) {
      ++distinct;
    }
  }
  EXPECT_GE(distinct, 4u);
}

TEST_F(MicrobenchmarkTest, EpsMinIsConstantAcrossTasks) {
  MicrobenchmarkConfig config;
  config.num_tasks = 80;
  config.sigma_alpha = 3.0;
  config.eps_min = 0.05;
  std::vector<Task> tasks = GenerateMicrobenchmark(pool_, config);
  for (const Task& t : tasks) {
    EXPECT_NEAR(pool_.NormalizedEpsMin(t.demand), 0.05, 1e-9);
  }
}

TEST_F(MicrobenchmarkTest, DeterministicForSeed) {
  MicrobenchmarkConfig config;
  config.num_tasks = 60;
  config.sigma_alpha = 2.0;
  config.sigma_blocks = 1.0;
  config.seed = 77;
  std::vector<Task> a = GenerateMicrobenchmark(pool_, config);
  std::vector<Task> b = GenerateMicrobenchmark(pool_, config);
  ASSERT_EQ(a.size(), b.size());
  for (size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a[i].blocks, b[i].blocks);
    EXPECT_EQ(a[i].demand.epsilons(), b[i].demand.epsilons());
  }
}

TEST_F(MicrobenchmarkTest, BlocksAreDistinctAndInRange) {
  MicrobenchmarkConfig config;
  config.num_tasks = 100;
  config.sigma_blocks = 5.0;
  config.num_blocks = 12;
  std::vector<Task> tasks = GenerateMicrobenchmark(pool_, config);
  for (const Task& t : tasks) {
    std::set<BlockId> unique(t.blocks.begin(), t.blocks.end());
    EXPECT_EQ(unique.size(), t.blocks.size());
    for (BlockId b : t.blocks) {
      EXPECT_GE(b, 0);
      EXPECT_LT(b, 12);
    }
  }
}

}  // namespace
}  // namespace dpack
