#include "src/knapsack/privacy_knapsack.h"

#include <algorithm>

#include <gtest/gtest.h>

#include "src/common/rng.h"

namespace dpack {
namespace {

// A 2-block, 2-order instance mirroring Fig. 3: only one order per block needs to fit.
TEST(PrivacyKnapsackTest, ExistsAlphaSemanticFig3) {
  PkInstance instance;
  instance.num_blocks = 2;
  instance.num_orders = 2;
  instance.capacity = {1.0, 1.0,   // Block 0: c at alpha1, alpha2.
                       1.0, 1.0};  // Block 1.
  // Four cheap tasks on block 0 that fit at alpha1 only (0.25 each at alpha1, 1.5 at
  // alpha2), plus a task that fits nowhere once they run.
  for (int i = 0; i < 4; ++i) {
    instance.tasks.push_back({1.0, {0}, {0.25, 1.5}});
  }
  // Two cheap tasks on block 1 fitting at alpha2 only.
  instance.tasks.push_back({1.0, {1}, {1.5, 0.5}});
  instance.tasks.push_back({1.0, {1}, {1.5, 0.5}});

  PkResult result = SolvePrivacyKnapsackExact(instance);
  EXPECT_TRUE(result.optimal);
  // All six fit: block 0 within budget at alpha1 (4 x 0.25 = 1.0), block 1 at alpha2 (1.0).
  EXPECT_DOUBLE_EQ(result.total_weight, 6.0);
}

TEST(PrivacyKnapsackTest, RespectsAllBlocksOfATask) {
  PkInstance instance;
  instance.num_blocks = 2;
  instance.num_orders = 1;
  instance.capacity = {1.0, 0.5};
  instance.tasks.push_back({5.0, {0, 1}, {0.8}});  // Needs 0.8 on both; block 1 only has 0.5.
  instance.tasks.push_back({1.0, {0}, {1.0}});
  PkResult result = SolvePrivacyKnapsackExact(instance);
  EXPECT_TRUE(result.optimal);
  EXPECT_DOUBLE_EQ(result.total_weight, 1.0);
  EXPECT_EQ(result.selected, (std::vector<size_t>{1}));
}

TEST(PrivacyKnapsackTest, ZeroCapacityOrdersAreUnusable) {
  PkInstance instance;
  instance.num_blocks = 1;
  instance.num_orders = 2;
  instance.capacity = {0.0, 1.0};
  // Zero demand at the zero-capacity order does not make a task feasible there.
  instance.tasks.push_back({1.0, {0}, {0.0, 2.0}});
  PkResult result = SolvePrivacyKnapsackExact(instance);
  EXPECT_TRUE(result.optimal);
  EXPECT_DOUBLE_EQ(result.total_weight, 0.0);
}

TEST(PrivacyKnapsackTest, WeightedPrefersHeavyTask) {
  PkInstance instance;
  instance.num_blocks = 1;
  instance.num_orders = 1;
  instance.capacity = {1.0};
  instance.tasks.push_back({10.0, {0}, {1.0}});
  instance.tasks.push_back({1.0, {0}, {0.5}});
  instance.tasks.push_back({1.0, {0}, {0.5}});
  PkResult result = SolvePrivacyKnapsackExact(instance);
  EXPECT_TRUE(result.optimal);
  EXPECT_DOUBLE_EQ(result.total_weight, 10.0);
}

TEST(PrivacyKnapsackTest, EmptyInstance) {
  PkInstance instance;
  instance.num_blocks = 1;
  instance.num_orders = 1;
  instance.capacity = {1.0};
  PkResult result = SolvePrivacyKnapsackExact(instance);
  EXPECT_TRUE(result.optimal);
  EXPECT_DOUBLE_EQ(result.total_weight, 0.0);
}

TEST(PrivacyKnapsackTest, NodeBudgetReportsNonOptimal) {
  // A deliberately hard instance (anti-correlated weights/demands across 3 blocks) with a
  // 1-node budget must stop early and flag it.
  Rng rng(7);
  PkInstance instance;
  instance.num_blocks = 3;
  instance.num_orders = 2;
  instance.capacity.assign(6, 10.0);
  for (int i = 0; i < 40; ++i) {
    PkTask task;
    task.weight = rng.Uniform(0.5, 2.0);
    task.blocks = {0, 1, 2};
    task.demand = {rng.Uniform(0.1, 2.0), rng.Uniform(0.1, 2.0)};
    instance.tasks.push_back(std::move(task));
  }
  PkOptions options;
  options.max_nodes = 1;
  PkResult result = SolvePrivacyKnapsackExact(instance, options);
  EXPECT_FALSE(result.optimal);
  EXPECT_GT(result.total_weight, 0.0);  // Greedy incumbent still returned.
}

TEST(PrivacyKnapsackTest, StoppedSearchKeepsTheHeavierSeedThatFits) {
  // Every task requests both blocks (capacity 1 at both orders). The greedy incumbent takes
  // task 0, (0.1, 1.0), and then nothing fits: weight 1. Tasks 1-3, (1.0, 0.3) each, fit
  // together at the second order: weight 3. A one-node search keeps the heavier seed; a
  // seed past the strict capacity, or lighter than the incumbent, is ignored.
  PkInstance instance;
  instance.num_blocks = 2;
  instance.num_orders = 2;
  instance.capacity.assign(4, 1.0);
  instance.tasks.push_back({1.0, {0, 1}, {0.1, 1.0}});
  for (int i = 0; i < 4; ++i) {
    instance.tasks.push_back({1.0, {0, 1}, {1.0, 0.3}});
  }
  PkOptions options;
  options.max_nodes = 1;
  EXPECT_DOUBLE_EQ(SolvePrivacyKnapsackExact(instance, options).total_weight, 1.0);

  std::vector<size_t> fits = {1, 2, 3};
  PkResult seeded = SolvePrivacyKnapsackExact(instance, options, fits);
  EXPECT_FALSE(seeded.optimal);
  EXPECT_DOUBLE_EQ(seeded.total_weight, 3.0);
  EXPECT_EQ(seeded.selected, fits);

  std::vector<size_t> too_much = {1, 2, 3, 4};  // 1.2 at the second order.
  EXPECT_DOUBLE_EQ(SolvePrivacyKnapsackExact(instance, options, too_much).total_weight, 1.0);
  std::vector<size_t> lighter = {1};
  EXPECT_EQ(SolvePrivacyKnapsackExact(instance, options, lighter).selected,
            (std::vector<size_t>{0}));
}

// ---------------------------------------------------------------------------
// Property tests: branch-and-bound equals brute force on random instances, and the greedy
// incumbent is never better than the returned solution.
// ---------------------------------------------------------------------------

class PkPropertyTest : public testing::TestWithParam<uint64_t> {};

PkInstance RandomInstance(Rng& rng, size_t num_tasks, size_t num_blocks, size_t num_orders) {
  PkInstance instance;
  instance.num_blocks = num_blocks;
  instance.num_orders = num_orders;
  instance.capacity.resize(num_blocks * num_orders);
  for (double& c : instance.capacity) {
    // Some orders unusable (zero capacity) to exercise the filter semantics.
    c = rng.Bernoulli(0.2) ? 0.0 : rng.Uniform(0.5, 3.0);
  }
  for (size_t i = 0; i < num_tasks; ++i) {
    PkTask task;
    task.weight = rng.Bernoulli(0.5) ? 1.0 : rng.Uniform(0.5, 5.0);
    size_t k = static_cast<size_t>(rng.UniformInt(1, static_cast<int64_t>(num_blocks)));
    std::vector<size_t> blocks = rng.SampleWithoutReplacement(num_blocks, k);
    task.blocks = blocks;
    task.demand.resize(num_orders);
    for (double& d : task.demand) {
      d = rng.Uniform(0.0, 1.5);
    }
    instance.tasks.push_back(std::move(task));
  }
  return instance;
}

TEST_P(PkPropertyTest, BranchAndBoundMatchesBruteForce) {
  Rng rng(GetParam());
  PkInstance instance = RandomInstance(rng, 12, 3, 3);
  PkResult exact = SolvePrivacyKnapsackExact(instance);
  PkResult brute = SolvePrivacyKnapsackBruteForce(instance);
  ASSERT_TRUE(exact.optimal);
  EXPECT_NEAR(exact.total_weight, brute.total_weight, 1e-9);
}

TEST_P(PkPropertyTest, SelectedSetIsFeasible) {
  Rng rng(GetParam() + 500);
  PkInstance instance = RandomInstance(rng, 14, 2, 4);
  PkResult result = SolvePrivacyKnapsackExact(instance);
  // Recompute feasibility of the returned set from scratch.
  std::vector<double> consumed(instance.num_blocks * instance.num_orders, 0.0);
  std::vector<bool> touched(instance.num_blocks, false);
  double weight = 0.0;
  for (size_t i : result.selected) {
    weight += instance.tasks[i].weight;
    for (size_t j : instance.tasks[i].blocks) {
      touched[j] = true;
      for (size_t a = 0; a < instance.num_orders; ++a) {
        consumed[j * instance.num_orders + a] += instance.tasks[i].demand[a];
      }
    }
  }
  EXPECT_NEAR(weight, result.total_weight, 1e-9);
  for (size_t j = 0; j < instance.num_blocks; ++j) {
    if (!touched[j]) {
      continue;
    }
    bool ok = false;
    for (size_t a = 0; a < instance.num_orders; ++a) {
      if (instance.CapacityAt(j, a) > 0.0 &&
          consumed[j * instance.num_orders + a] <= instance.CapacityAt(j, a) + 1e-12) {
        ok = true;
      }
    }
    EXPECT_TRUE(ok) << "block " << j << " infeasible at every order";
  }
}

TEST_P(PkPropertyTest, SingleBlockUniformFastPathMatchesBruteForce) {
  Rng rng(GetParam() + 900);
  PkInstance instance = RandomInstance(rng, 14, 1, 4);
  for (auto& task : instance.tasks) {
    task.weight = 1.0;
  }
  PkResult fast = SolvePrivacyKnapsackExact(instance);
  PkResult brute = SolvePrivacyKnapsackBruteForce(instance);
  ASSERT_TRUE(fast.optimal);
  EXPECT_NEAR(fast.total_weight, brute.total_weight, 1e-9);
}

INSTANTIATE_TEST_SUITE_P(Seeds, PkPropertyTest, testing::Range<uint64_t>(1, 13));

}  // namespace
}  // namespace dpack
