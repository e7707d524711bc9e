#include "src/knapsack/single_dim.h"

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>
#include <limits>
#include <numeric>
#include <vector>

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

// MaxCardinalityCount settles counts below 8 from the eight smallest demands and takes the
// heap otherwise; both must agree with MaxCardinalityKnapsack on arbitrary doubles, where
// the additions round.
size_t DifferentialCount(std::vector<double> demands, double capacity) {
  std::vector<KnapsackItem> items;
  for (double demand : demands) {
    items.push_back({1.0, demand});
  }
  size_t expected = MaxCardinalityKnapsack(items, capacity).selected.size();
  size_t taken = MaxCardinalityCount(demands, capacity);
  EXPECT_EQ(taken, expected) << "capacity=" << capacity << " n=" << items.size();
  return taken;
}

TEST(MaxCardinalityCountTest, TwoSmallestFastPathMatchesKnapsack) {
  EXPECT_EQ(DifferentialCount({}, 0.0), 0u);
  EXPECT_EQ(DifferentialCount({}, std::numeric_limits<double>::infinity()), 0u);
  EXPECT_EQ(DifferentialCount({0.4}, 0.4), 1u);
  EXPECT_EQ(DifferentialCount({0.4}, 0.3), 0u);
  EXPECT_EQ(DifferentialCount({0.4}, std::numeric_limits<double>::infinity()), 1u);
  EXPECT_EQ(DifferentialCount({0.0}, 0.0), 1u);
  EXPECT_EQ(DifferentialCount({0.0, 0.0, 0.1}, 0.0), 2u);
  EXPECT_EQ(DifferentialCount({0.2, 0.0, 0.2}, 0.0), 1u);
  EXPECT_EQ(DifferentialCount({0.7, 0.7, 0.7}, 1.0), 1u);
  EXPECT_EQ(DifferentialCount({0.5, 0.5, 0.5}, 1.0), 2u);
  // Exact-boundary pairs: d1 + d2 == capacity after rounding is taken, one ulp less is not.
  EXPECT_EQ(DifferentialCount({0.2, 0.9, 0.1}, 0.1 + 0.2), 2u);
  EXPECT_EQ(DifferentialCount({0.2, 0.9, 0.1}, 0.3), 1u);  // 0.1 + 0.2 > 0.3 in doubles.
  EXPECT_EQ(DifferentialCount({0.2, 0.1}, std::nextafter(0.1 + 0.2, 0.0)), 1u);

  Rng rng(20);
  for (int round = 0; round < 400; ++round) {
    size_t n = static_cast<size_t>(rng.UniformInt(0, 40));
    std::vector<double> demands;
    for (size_t i = 0; i < n; ++i) {
      // A coarse grid makes ties and zeros common; the rest rounds.
      demands.push_back(rng.Uniform(0.0, 1.0) < 0.3
                            ? static_cast<double>(rng.UniformInt(0, 4)) / 4.0
                            : rng.Uniform(0.0, 1.0));
    }
    std::vector<double> sorted = demands;
    std::sort(sorted.begin(), sorted.end());
    // Capacities around the one- and two-demand boundaries, and large enough to take many
    // demands through the heap.
    std::vector<double> capacities = {0.0, rng.Uniform(0.0, 2.0), rng.Uniform(0.0, 20.0)};
    if (n >= 1) {
      capacities.push_back(sorted[0]);
      capacities.push_back(std::nextafter(sorted[0], 0.0));
    }
    if (n >= 2) {
      capacities.push_back(sorted[0] + sorted[1]);
      capacities.push_back(std::nextafter(sorted[0] + sorted[1], 0.0));
      capacities.push_back(std::nextafter(sorted[0] + sorted[1], 100.0));
    }
    // Around the eighth demand, where the held smallest stop settling the count.
    double prefix = 0.0;
    for (size_t m = 0; m < n && m < 9; ++m) {
      prefix += sorted[m];
      if (m >= 6) {
        capacities.push_back(prefix);
        capacities.push_back(std::nextafter(prefix, 0.0));
      }
    }
    for (double capacity : capacities) {
      DifferentialCount(demands, capacity);
    }
  }
}

TEST(MaxCardinalityCountTest, LargeCapacitiesTakeTheHeapPath) {
  std::vector<double> demands(64, 0.25);
  EXPECT_EQ(DifferentialCount(demands, 4.0), 16u);
  EXPECT_EQ(DifferentialCount(demands, 100.0), 64u);
}

TEST(MaxCardinalityCountDeathTest, NegativeDemandAborts) {
  std::vector<double> demands = {0.5, -0.25};
  EXPECT_DEATH(MaxCardinalityCount(demands, 1.0), "demands must be non-negative");
}

TEST(MaxCardinalityCountDeathTest, InvalidDemandAnywhereAborts) {
  // Wherever the bad demand sits, and even when the valid ones alone would settle the count
  // as 0 or 1, the column aborts.
  for (double bad : {-0.25, std::numeric_limits<double>::quiet_NaN()}) {
    for (size_t at = 0; at < 3; ++at) {
      std::vector<double> demands = {5.0, 0.5, 7.0};
      demands[at] = bad;
      for (double capacity : {0.0, 1.0, 100.0}) {
        std::vector<double> column = demands;
        EXPECT_DEATH(MaxCardinalityCount(column, capacity), "demands must be non-negative")
            << "bad=" << bad << " at=" << at << " capacity=" << capacity;
      }
    }
  }
}

// SmallestDemands::Count must equal MaxCardinalityCount on whatever the column holds after
// any sequence of adds and drops: counts settled by the held demands, depleted summaries
// that refill from the column, and columns that take the heap path. Demands come from a
// coarse grid (ties, zeros, -0.0) or are arbitrary doubles, and the column's order is
// shuffled, since the count must not depend on it.
TEST(SmallestDemandsTest, CountMatchesMaxCardinalityCountUnderAddsAndDrops) {
  Rng rng(21);
  for (int round = 0; round < 40; ++round) {
    SmallestDemands low;
    std::vector<double> column;
    for (int step = 0; step < 300; ++step) {
      if (column.empty() || rng.Uniform(0.0, 1.0) < 0.55) {
        double demand = rng.Uniform(0.0, 1.0) < 0.5
                            ? static_cast<double>(rng.UniformInt(0, 8)) / 8.0
                            : rng.Uniform(0.0, 1.0);
        if (demand == 0.0 && rng.Bernoulli(0.5)) {
          demand = -0.0;
        }
        low.Add(demand);
        column.push_back(demand);
      } else {
        size_t at = static_cast<size_t>(
            rng.UniformInt(0, static_cast<int64_t>(column.size()) - 1));
        low.Drop(column[at]);
        column[at] = column.back();
        column.pop_back();
      }
      if (step % 7 != 0) {
        continue;
      }
      std::vector<double> sorted = column;
      std::sort(sorted.begin(), sorted.end());
      std::vector<double> capacities = {0.0, rng.Uniform(0.0, 3.0), rng.Uniform(0.0, 40.0)};
      double prefix = 0.0;
      for (size_t m = 0; m < sorted.size() && m < 12; ++m) {
        prefix += sorted[m];
        capacities.push_back(prefix);
        capacities.push_back(std::nextafter(prefix, 0.0));
      }
      for (double capacity : capacities) {
        EXPECT_EQ(low.Count(column, capacity), MaxCardinalityCount(column, capacity))
            << "round=" << round << " step=" << step << " capacity=" << capacity;
      }
    }
  }
}

TEST(SmallestDemandsDeathTest, InvalidDemandAborts) {
  for (double bad : {-0.25, std::numeric_limits<double>::quiet_NaN()}) {
    SmallestDemands low;
    std::vector<double> column = {0.5, bad, 7.0};
    for (double demand : column) {
      low.Add(demand);
    }
    EXPECT_DEATH(low.Count(column, 1.0), "demands must be non-negative") << "bad=" << bad;
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, SingleDimPropertyTest, testing::Range<uint64_t>(1, 13));

}  // namespace
}  // namespace dpack
