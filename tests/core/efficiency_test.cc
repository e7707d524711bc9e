#include "src/core/efficiency.h"

#include <algorithm>
#include <limits>

#include <gtest/gtest.h>

#include "src/block/block_manager.h"
#include "src/common/rng.h"
#include "src/knapsack/single_dim.h"

namespace dpack {
namespace {

// Two-order grid with unit capacities keeps the arithmetic exact.
class EfficiencyTest : public testing::Test {
 protected:
  EfficiencyTest() : grid_(AlphaGrid::Create({4.0, 8.0})), blocks_(grid_, 10.0, 1e-7) {
    RdpCurve capacity(grid_, {1.0, 2.0});
    blocks_.AddBlockWithCapacity(capacity, 0.0, /*unlocked=*/true);
    blocks_.AddBlockWithCapacity(capacity, 0.0, /*unlocked=*/true);
  }

  // A fully unlocked, unconsumed block: its available capacity is `capacity`, bit for bit.
  PrivacyBlock Block(std::vector<double> capacity) {
    return PrivacyBlock(0, RdpCurve(grid_, std::move(capacity)), 0.0);
  }

  Task MakeTask(TaskId id, std::vector<BlockId> block_ids, double d1, double d2,
                double weight = 1.0) {
    Task t(id, weight, RdpCurve(grid_, {d1, d2}));
    t.blocks = std::move(block_ids);
    return t;
  }

  AlphaGridPtr grid_;
  BlockManager blocks_;
};

TEST_F(EfficiencyTest, DominantShareIsMaxOverBlocksAndOrders) {
  Task t = MakeTask(1, {0, 1}, 0.5, 1.0);
  // Shares: block 0 {0.5/1, 1.0/2} and block 1 {0.5, 0.5} -> max 0.5.
  EXPECT_DOUBLE_EQ(DominantShare(t, blocks_), 0.5);
  EXPECT_DOUBLE_EQ(DpfEfficiency(t, blocks_), 2.0);
}

TEST_F(EfficiencyTest, DpfEfficiencyScalesWithWeight) {
  Task t = MakeTask(1, {0}, 0.5, 0.5, /*weight=*/4.0);
  EXPECT_DOUBLE_EQ(DpfEfficiency(t, blocks_), 8.0);
}

TEST_F(EfficiencyTest, AreaSumsAllOrders) {
  Task t = MakeTask(1, {0, 1}, 0.5, 1.0);
  // Area = 2 blocks x (0.5/1 + 1.0/2) = 2.0 -> efficiency 0.5.
  EXPECT_DOUBLE_EQ(AreaEfficiency(t, blocks_), 0.5);
}

TEST_F(EfficiencyTest, DpackCountsOnlyBestAlpha) {
  Task t = MakeTask(1, {0, 1}, 0.5, 1.0);
  std::vector<size_t> best_alpha = {0, 1};  // Block 0 at alpha1, block 1 at alpha2.
  // Cost = 0.5/1 (block 0, order 0) + 1.0/2 (block 1, order 1) = 1.0.
  EXPECT_DOUBLE_EQ(DpackEfficiency(t, blocks_, best_alpha), 1.0);
}

TEST_F(EfficiencyTest, DpackZeroWhenBestOrderDepleted) {
  blocks_.block(0).Commit(RdpCurve(grid_, {1.0, 0.0}));  // Deplete order 0 of block 0.
  Task t = MakeTask(1, {0}, 0.5, 0.0);
  std::vector<size_t> best_alpha = {0, 0};
  EXPECT_DOUBLE_EQ(DpackEfficiency(t, blocks_, best_alpha), 0.0);
}

TEST_F(EfficiencyTest, ZeroDemandTasksAreInfinitelyEfficient) {
  Task t = MakeTask(1, {0}, 0.0, 0.0);
  std::vector<size_t> best_alpha = {0, 0};
  EXPECT_EQ(DpfEfficiency(t, blocks_), std::numeric_limits<double>::infinity());
  EXPECT_EQ(AreaEfficiency(t, blocks_), std::numeric_limits<double>::infinity());
  EXPECT_EQ(DpackEfficiency(t, blocks_, best_alpha),
            std::numeric_limits<double>::infinity());
}

TEST_F(EfficiencyTest, DpfShareIsStaticUnderConsumption) {
  // PrivateKube's DPF computes dominant shares against the fixed global budget: consuming
  // budget does not change a task's share (the filter, not the metric, blocks allocation).
  Task t = MakeTask(1, {0}, 0.1, 0.1);
  double share_before = DominantShare(t, blocks_);
  blocks_.block(0).Commit(RdpCurve(grid_, {1.0, 2.0}));  // Deplete block 0 entirely.
  EXPECT_DOUBLE_EQ(DominantShare(t, blocks_), share_before);
}

TEST_F(EfficiencyTest, MetricsReadAvailableCapacityLive) {
  // The metrics read the blocks' current available capacity: a commit shows in the next
  // score.
  Task t = MakeTask(1, {0}, 0.75, 0.0);
  EXPECT_DOUBLE_EQ(AreaEfficiency(t, blocks_), 4.0 / 3.0);
  blocks_.block(0).Commit(RdpCurve(grid_, {0.25, 0.0}));
  EXPECT_DOUBLE_EQ(blocks_.block(0).AvailableAt(0), 0.75);
  EXPECT_DOUBLE_EQ(blocks_.block(0).AvailableAt(1), 2.0);
  EXPECT_DOUBLE_EQ(blocks_.block(1).AvailableAt(0), 1.0);
  EXPECT_DOUBLE_EQ(AreaEfficiency(t, blocks_), 1.0);
}

TEST_F(EfficiencyTest, ComputeBestAlphasPicksPackingOrder) {
  // Three tasks on block 0 fitting at order 0 (0.3 each <= 1.0) but only one at order 1
  // (1.9 each vs capacity 2.0).
  std::vector<Task> tasks;
  for (int i = 0; i < 3; ++i) {
    tasks.push_back(MakeTask(i, {0}, 0.3, 1.9));
  }
  std::vector<size_t> best = ComputeBestAlphas(tasks, blocks_, 0.05);
  EXPECT_EQ(best[0], 0u);
}

TEST_F(EfficiencyTest, ComputeBestAlphasWeighted) {
  // At order 0 only the light 0.9-demand task fits (weight 1); at order 1 the two heavy
  // tasks fit (total weight 10): best alpha must be order 1.
  std::vector<Task> tasks;
  tasks.push_back(MakeTask(0, {0}, 0.9, 2.5, /*weight=*/1.0));
  tasks.push_back(MakeTask(1, {0}, 0.8, 1.0, /*weight=*/5.0));
  tasks.push_back(MakeTask(2, {0}, 0.8, 1.0, /*weight=*/5.0));
  std::vector<size_t> best = ComputeBestAlphas(tasks, blocks_, 0.05);
  EXPECT_EQ(best[0], 1u);
}

TEST_F(EfficiencyTest, ComputeBestAlphasUnrequestedBlockGetsLargestCapacity) {
  std::vector<Task> tasks;
  tasks.push_back(MakeTask(0, {0}, 0.3, 0.3));
  std::vector<size_t> best = ComputeBestAlphas(tasks, blocks_, 0.05);
  EXPECT_EQ(best[1], 1u);  // Capacity 2.0 > 1.0.
}

TEST_F(EfficiencyTest, BestAlphaForBlockUniformWeightsUseExactCardinality) {
  // Order 0 (capacity 3) fits demands 1 + 2 of {4, 1, 2}; order 1 fits 0.5 + 1 of
  // {1, 0.5, 1} under capacity 2, the same count, so the first max (order 0) wins. At
  // capacity 2.5 order 1 fits all three exactly (demand sum == capacity) and wins.
  std::vector<Task> tasks;
  tasks.push_back(MakeTask(0, {0}, 4.0, 1.0));
  tasks.push_back(MakeTask(1, {0}, 1.0, 0.5));
  tasks.push_back(MakeTask(2, {0}, 2.0, 1.0));
  std::vector<size_t> requesters = {0, 1, 2};
  EXPECT_EQ(BestAlphaForBlock(tasks, requesters, Block({3.0, 2.0}), 0.05), 0u);
  EXPECT_EQ(BestAlphaForBlock(tasks, requesters, Block({3.0, 2.5}), 0.05), 1u);
}

TEST_F(EfficiencyTest, BestAlphaForBlockEdgeCases) {
  std::vector<Task> tasks;
  tasks.push_back(MakeTask(0, {0}, 0.1, 0.1));
  // No requesters: the largest-capacity order, ties to the first.
  EXPECT_EQ(BestAlphaForBlock(tasks, {}, Block({1.0, 2.0}), 0.05), 1u);
  EXPECT_EQ(BestAlphaForBlock(tasks, {}, Block({2.0, 2.0}), 0.05), 0u);
  // Every order depleted: order 0.
  std::vector<size_t> requesters = {0};
  EXPECT_EQ(BestAlphaForBlock(tasks, requesters, Block({0.0, 0.0}), 0.05), 0u);
  // Order 0 depleted: nothing fits at order 1 either, but it is the only usable order.
  tasks.push_back(MakeTask(1, {0}, 0.1, 3.0));
  requesters = {1};
  EXPECT_EQ(BestAlphaForBlock(tasks, requesters, Block({0.0, 2.0}), 0.05), 1u);
}

// Seeded uniform-weight instances with depleted orders: BestAlphaForBlock must equal the first
// argmax over usable orders of MaxCardinalityKnapsack's total_profit.
TEST(BestAlphaForBlockTest, UniformWeightsMatchMaxCardinalityArgmax) {
  AlphaGridPtr grid = AlphaGrid::Default();
  size_t num_orders = grid->size();
  for (uint64_t seed = 1; seed <= 40; ++seed) {
    Rng rng(seed);
    double weight = rng.Bernoulli(0.2) ? 0.0 : rng.Uniform(0.1, 10.0);
    std::vector<Task> tasks;
    size_t n = static_cast<size_t>(rng.UniformInt(1, 60));
    for (size_t i = 0; i < n; ++i) {
      std::vector<double> demand(num_orders);
      for (double& d : demand) {
        // Small grid values give ties and zeros; the rest are arbitrary doubles.
        d = rng.Bernoulli(0.5) ? static_cast<double>(rng.UniformInt(0, 8)) / 8.0
                               : rng.Uniform(0.0, 2.0);
      }
      tasks.emplace_back(static_cast<TaskId>(i), weight, RdpCurve(grid, demand));
    }
    std::vector<size_t> requesters;
    for (size_t i = 0; i < n; ++i) {
      if (rng.Bernoulli(0.7)) {
        requesters.push_back(i);
      }
    }
    std::vector<double> capacity(num_orders);
    for (double& c : capacity) {
      c = rng.Bernoulli(0.4) ? 0.0 : rng.Uniform(0.0, 6.0);
    }
    if (seed % 10 == 0) {
      std::fill(capacity.begin(), capacity.end(), 0.0);
    }
    PrivacyBlock block(0, RdpCurve(grid, capacity), 0.0);

    size_t expected = 0;
    if (requesters.empty()) {
      for (size_t a = 1; a < num_orders; ++a) {
        if (capacity[a] > capacity[expected]) {
          expected = a;
        }
      }
    } else {
      double best_profit = -1.0;
      for (size_t a = 0; a < num_orders; ++a) {
        if (capacity[a] <= 0.0) {
          continue;
        }
        std::vector<KnapsackItem> items;
        for (size_t i : requesters) {
          items.push_back({weight, tasks[i].demand.epsilon(a)});
        }
        double profit = MaxCardinalityKnapsack(items, capacity[a]).total_profit;
        if (profit > best_profit) {
          best_profit = profit;
          expected = a;
        }
      }
    }
    EXPECT_EQ(BestAlphaForBlock(tasks, requesters, block, 0.05), expected)
        << "seed=" << seed;
  }
}

TEST_F(EfficiencyTest, BestAlphaForBlockNegativeWeightAbortsOnlyAtAUsableOrder) {
  std::vector<Task> tasks;
  tasks.push_back(MakeTask(0, {0}, 0.1, 0.1, /*weight=*/-1.0));
  tasks.push_back(MakeTask(1, {0}, 0.1, 0.1, /*weight=*/-1.0));
  std::vector<size_t> requesters = {0, 1};
  EXPECT_EQ(BestAlphaForBlock(tasks, requesters, Block({0.0, 0.0}), 0.05), 0u);
  EXPECT_DEATH(BestAlphaForBlock(tasks, requesters, Block({0.0, 1.0}), 0.05),
               "profits must be non-negative");
  tasks[1].weight = 2.0;  // Non-uniform weights take the FPTAS, which validates the same.
  EXPECT_DEATH(BestAlphaForBlock(tasks, requesters, Block({0.0, 1.0}), 0.05),
               "profits must be non-negative");
}

TEST_F(EfficiencyTest, Property4SingleOrderDpackEqualsArea) {
  // Prop. 4: with one alpha dimension, DPack's metric reduces to the area metric (Eq. 4).
  AlphaGridPtr grid1 = AlphaGrid::TraditionalDp();
  BlockManager blocks(grid1, 10.0, 1e-7);
  blocks.AddBlockWithCapacity(RdpCurve(grid1, {2.0}), 0.0, true);
  blocks.AddBlockWithCapacity(RdpCurve(grid1, {4.0}), 0.0, true);
  std::vector<size_t> best_alpha = {0, 0};
  for (double d : {0.1, 0.5, 1.0, 1.9}) {
    Task t(0, 1.5, RdpCurve(grid1, {d}));
    t.blocks = {0, 1};
    EXPECT_DOUBLE_EQ(DpackEfficiency(t, blocks, best_alpha), AreaEfficiency(t, blocks));
  }
}

}  // namespace
}  // namespace dpack
