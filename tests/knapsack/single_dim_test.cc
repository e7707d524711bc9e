#include "src/knapsack/single_dim.h"

#include <bit>
#include <cmath>
#include <cstdint>
#include <numeric>

#include <gtest/gtest.h>

#include "src/common/rng.h"

namespace dpack {
namespace {

double SelectedDemand(const KnapsackSolution& sol, std::span<const KnapsackItem> items) {
  double total = 0.0;
  for (size_t i : sol.selected) {
    total += items[i].demand;
  }
  return total;
}

double SelectedProfit(const KnapsackSolution& sol, std::span<const KnapsackItem> items) {
  double total = 0.0;
  for (size_t i : sol.selected) {
    total += items[i].profit;
  }
  return total;
}

TEST(MaxCardinalityTest, PacksSmallestDemandsFirst) {
  std::vector<KnapsackItem> items = {{1.0, 5.0}, {1.0, 1.0}, {1.0, 3.0}, {1.0, 2.0}};
  KnapsackSolution sol = MaxCardinalityKnapsack(items, 6.0);
  EXPECT_DOUBLE_EQ(sol.total_profit, 3.0);  // 1 + 2 + 3 fit; 5 does not.
  EXPECT_EQ(sol.selected, (std::vector<size_t>{1, 2, 3}));
}

TEST(MaxCardinalityTest, ZeroCapacityOnlyZeroDemands) {
  std::vector<KnapsackItem> items = {{1.0, 0.0}, {1.0, 0.1}};
  KnapsackSolution sol = MaxCardinalityKnapsack(items, 0.0);
  EXPECT_EQ(sol.selected, (std::vector<size_t>{0}));
}

TEST(MaxCardinalityTest, TiesAtTheBoundarySelectTheLowestIndices) {
  std::vector<KnapsackItem> items = {{1.0, 1.0}, {1.0, 0.5}, {1.0, 1.0}, {1.0, 1.0}};
  KnapsackSolution sol = MaxCardinalityKnapsack(items, 2.5);
  EXPECT_EQ(sol.selected, (std::vector<size_t>{0, 1, 2}));  // 0.5 + 1 + 1 == capacity.
}

TEST(MaxCardinalityTest, EmptyInput) {
  std::vector<KnapsackItem> items;
  KnapsackSolution sol = MaxCardinalityKnapsack(items, 10.0);
  EXPECT_TRUE(sol.selected.empty());
  EXPECT_DOUBLE_EQ(sol.total_profit, 0.0);
}

TEST(GreedyDensityTest, PrefersDenserItems) {
  std::vector<KnapsackItem> items = {{10.0, 10.0}, {9.0, 3.0}, {8.0, 3.0}};
  KnapsackSolution sol = GreedyDensityKnapsack(items, 10.0);
  // Density order: item1 (3), item2 (2.67), item0 (1). Greedy packs 1, 2 (demand 6), cannot
  // fit 0. Profit 17 beats best single (10).
  EXPECT_DOUBLE_EQ(sol.total_profit, 17.0);
}

TEST(GreedyDensityTest, BestSingleItemFixesGreedyTrap) {
  // Classic greedy trap: one dense small item blocks a big profitable one.
  std::vector<KnapsackItem> items = {{2.0, 1.0}, {100.0, 100.0}};
  KnapsackSolution sol = GreedyDensityKnapsack(items, 100.0);
  EXPECT_DOUBLE_EQ(sol.total_profit, 100.0);  // Single big item, not greedy's 2.
}

TEST(GreedyDensityTest, ZeroDemandItemsAlwaysPacked) {
  std::vector<KnapsackItem> items = {{5.0, 0.0}, {1.0, 2.0}};
  KnapsackSolution sol = GreedyDensityKnapsack(items, 1.0);
  EXPECT_DOUBLE_EQ(sol.total_profit, 5.0);
}

TEST(FractionalBoundTest, UpperBoundsExact) {
  std::vector<KnapsackItem> items = {{6.0, 4.0}, {5.0, 3.0}, {4.0, 3.0}};
  double bound = FractionalKnapsackBound(items, 6.0);
  KnapsackSolution exact = ExactKnapsack(items, 6.0);
  EXPECT_GE(bound, exact.total_profit - 1e-12);
}

TEST(ExactKnapsackTest, SolvesTextbookInstance) {
  std::vector<KnapsackItem> items = {{60.0, 10.0}, {100.0, 20.0}, {120.0, 30.0}};
  KnapsackSolution sol = ExactKnapsack(items, 50.0);
  EXPECT_DOUBLE_EQ(sol.total_profit, 220.0);
  EXPECT_EQ(sol.selected, (std::vector<size_t>{1, 2}));
}

TEST(FptasKnapsackTest, NearOptimalOnTextbookInstance) {
  std::vector<KnapsackItem> items = {{60.0, 10.0}, {100.0, 20.0}, {120.0, 30.0}};
  KnapsackSolution sol = FptasKnapsack(items, 50.0, 0.01);
  EXPECT_GE(sol.total_profit, 220.0 / 1.01 - 1e-9);
  EXPECT_LE(SelectedDemand(sol, items), 50.0 + 1e-12);
}

TEST(FptasKnapsackTest, FallsBackToGreedyWhenStateCapHit) {
  std::vector<KnapsackItem> items = {{60.0, 10.0}, {100.0, 20.0}, {120.0, 30.0}};
  KnapsackSolution sol = FptasKnapsack(items, 50.0, 0.01, /*max_states=*/4);
  // Greedy fallback is still a 1/2-approximation.
  EXPECT_GE(sol.total_profit, 110.0);
}

TEST(FptasKnapsackTest, NothingFits) {
  std::vector<KnapsackItem> items = {{5.0, 10.0}};
  KnapsackSolution sol = FptasKnapsack(items, 1.0, 0.1);
  EXPECT_TRUE(sol.selected.empty());
}

// ---------------------------------------------------------------------------
// Property tests over random instances: exact vs brute-force optimality, the greedy 1/2
// bound, and the FPTAS (1 + eta) bound.
// ---------------------------------------------------------------------------

class SingleDimPropertyTest : public testing::TestWithParam<uint64_t> {};

std::vector<KnapsackItem> RandomItems(Rng& rng, size_t n) {
  std::vector<KnapsackItem> items;
  items.reserve(n);
  for (size_t i = 0; i < n; ++i) {
    items.push_back({rng.Uniform(0.1, 10.0), rng.Uniform(0.0, 5.0)});
  }
  return items;
}

double BruteForceProfit(std::span<const KnapsackItem> items, double capacity) {
  size_t n = items.size();
  double best = 0.0;
  for (uint64_t mask = 0; mask < (uint64_t{1} << n); ++mask) {
    double demand = 0.0;
    double profit = 0.0;
    for (size_t i = 0; i < n; ++i) {
      if ((mask >> i) & 1) {
        demand += items[i].demand;
        profit += items[i].profit;
      }
    }
    if (demand <= capacity) {
      best = std::max(best, profit);
    }
  }
  return best;
}

TEST_P(SingleDimPropertyTest, ExactMatchesBruteForce) {
  Rng rng(GetParam());
  std::vector<KnapsackItem> items = RandomItems(rng, 12);
  double capacity = rng.Uniform(1.0, 20.0);
  KnapsackSolution sol = ExactKnapsack(items, capacity);
  EXPECT_NEAR(sol.total_profit, BruteForceProfit(items, capacity), 1e-9);
  EXPECT_LE(SelectedDemand(sol, items), capacity + 1e-9);
  EXPECT_NEAR(SelectedProfit(sol, items), sol.total_profit, 1e-9);
}

TEST_P(SingleDimPropertyTest, GreedyIsHalfApproximation) {
  Rng rng(GetParam() + 1000);
  std::vector<KnapsackItem> items = RandomItems(rng, 14);
  double capacity = rng.Uniform(1.0, 20.0);
  double opt = BruteForceProfit(items, capacity);
  KnapsackSolution greedy = GreedyDensityKnapsack(items, capacity);
  EXPECT_GE(greedy.total_profit, 0.5 * opt - 1e-9);
  EXPECT_LE(greedy.total_profit, opt + 1e-9);
  EXPECT_LE(SelectedDemand(greedy, items), capacity + 1e-9);
}

TEST_P(SingleDimPropertyTest, FptasWithinEta) {
  Rng rng(GetParam() + 2000);
  std::vector<KnapsackItem> items = RandomItems(rng, 13);
  double capacity = rng.Uniform(1.0, 20.0);
  double opt = BruteForceProfit(items, capacity);
  for (double eta : {0.5, 0.1, 0.02}) {
    KnapsackSolution sol = FptasKnapsack(items, capacity, eta);
    EXPECT_GE(sol.total_profit, opt / (1.0 + eta) - 1e-9)
        << "eta=" << eta << " opt=" << opt;
    EXPECT_LE(SelectedDemand(sol, items), capacity + 1e-9);
  }
}

TEST_P(SingleDimPropertyTest, FractionalBoundDominatesExact) {
  Rng rng(GetParam() + 3000);
  std::vector<KnapsackItem> items = RandomItems(rng, 12);
  double capacity = rng.Uniform(1.0, 20.0);
  double bound = FractionalKnapsackBound(items, capacity);
  EXPECT_GE(bound, BruteForceProfit(items, capacity) - 1e-9);
}

TEST_P(SingleDimPropertyTest, MaxCardinalityIsOptimalForUniformProfits) {
  Rng rng(GetParam() + 4000);
  std::vector<KnapsackItem> items = RandomItems(rng, 12);
  for (auto& item : items) {
    item.profit = 1.0;
  }
  double capacity = rng.Uniform(1.0, 20.0);
  KnapsackSolution sol = MaxCardinalityKnapsack(items, capacity);
  EXPECT_NEAR(sol.total_profit, BruteForceProfit(items, capacity), 1e-9);
}

// Uniform-profit items whose demands lie on a 1/8 grid in [0, 3], so every subset sum is
// exact and ties, zero demands and demand == capacity all occur.
std::vector<KnapsackItem> GridItems(Rng& rng, size_t n, double profit) {
  std::vector<KnapsackItem> items;
  for (size_t i = 0; i < n; ++i) {
    items.push_back({profit, static_cast<double>(rng.UniformInt(0, 24)) / 8.0});
  }
  return items;
}

// The count-only routine must agree with MaxCardinalityKnapsack (count, and the profit of
// that many uniform profits bit for bit) and with the brute-force optimum. Returns the count.
size_t CheckedCount(const std::vector<KnapsackItem>& items, double capacity) {
  std::vector<double> demands;
  for (const auto& item : items) {
    demands.push_back(item.demand);
  }
  size_t taken = MaxCardinalityCount(demands, capacity);
  KnapsackSolution sol = MaxCardinalityKnapsack(items, capacity);
  EXPECT_EQ(taken, sol.selected.size()) << "capacity=" << capacity;
  double profit = 0.0;
  for (size_t m = 0; m < taken; ++m) {
    profit += items[0].profit;
  }
  EXPECT_EQ(std::bit_cast<uint64_t>(profit), std::bit_cast<uint64_t>(sol.total_profit));
  EXPECT_EQ(profit, BruteForceProfit(items, capacity)) << "capacity=" << capacity;
  return taken;
}

TEST_P(SingleDimPropertyTest, MaxCardinalityCountMatchesKnapsackAndBruteForce) {
  Rng rng(GetParam() + 5000);
  for (int round = 0; round < 20; ++round) {
    size_t n = static_cast<size_t>(rng.UniformInt(0, 14));
    std::vector<KnapsackItem> items = GridItems(rng, n, rng.Uniform(0.1, 10.0));
    CheckedCount(items, static_cast<double>(rng.UniformInt(0, 48)) / 8.0);
  }
}

TEST(MaxCardinalityCountTest, EdgeCases) {
  EXPECT_EQ(CheckedCount({}, 1.0), 0u);
  // Capacity 0 takes exactly the zero demands.
  EXPECT_EQ(CheckedCount({{0.7, 0.0}, {0.7, 0.5}, {0.7, 0.0}}, 0.0), 2u);
  // Every demand above capacity.
  EXPECT_EQ(CheckedCount({{1.0, 2.0}, {1.0, 3.0}, {1.0, 2.5}}, 1.5), 0u);
  // A demand equal to the capacity is taken.
  EXPECT_EQ(CheckedCount({{1.0, 3.0}, {1.0, 5.0}}, 3.0), 1u);
  // Ties.
  EXPECT_EQ(CheckedCount({{0.3, 1.0}, {0.3, 1.0}, {0.3, 1.0}, {0.3, 1.0}}, 2.5), 2u);
}

TEST(MaxCardinalityCountDeathTest, NegativeDemandAborts) {
  std::vector<double> demands = {0.5, -0.25};
  EXPECT_DEATH(MaxCardinalityCount(demands, 1.0), "demands must be non-negative");
}

INSTANTIATE_TEST_SUITE_P(Seeds, SingleDimPropertyTest, testing::Range<uint64_t>(1, 13));

}  // namespace
}  // namespace dpack
