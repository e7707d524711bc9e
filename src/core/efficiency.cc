#include "src/core/efficiency.h"

#include <algorithm>
#include <limits>

#include "src/common/check.h"
#include "src/knapsack/single_dim.h"

namespace dpack {

namespace {

constexpr double kInfinity = std::numeric_limits<double>::infinity();

}  // namespace

double DominantShare(const Task& task, const BlockManager& blocks) {
  double dominant = 0.0;
  for (BlockId j : task.blocks) {
    const RdpCurve& cap = blocks.block(j).capacity();
    bool usable = false;
    for (size_t a = 0; a < cap.size(); ++a) {
      if (cap.epsilon(a) > 0.0) {
        usable = true;
        dominant = std::max(dominant, task.demand.epsilon(a) / cap.epsilon(a));
      }
    }
    if (!usable && !task.demand.IsZero()) {
      return kInfinity;
    }
  }
  return dominant;
}

double DpfEfficiency(const Task& task, const BlockManager& blocks) {
  double share = DominantShare(task, blocks);
  if (share == 0.0) {
    return kInfinity;
  }
  if (share == kInfinity) {
    return 0.0;
  }
  return task.weight / share;
}

double AreaEfficiency(const Task& task, const BlockManager& blocks) {
  double area = 0.0;
  for (BlockId j : task.blocks) {
    const PrivacyBlock& block = blocks.block(j);
    for (size_t a = 0; a < block.capacity().size(); ++a) {
      double d = task.demand.epsilon(a);
      if (d == 0.0) {
        continue;
      }
      double c = block.AvailableAt(a);
      if (c <= 0.0) {
        // Demand on an unusable order contributes nothing under the exists-alpha semantic;
        // the traditional interpretation (all orders binding) would make this infinite.
        // We skip it so the metric degrades gracefully on RDP instances.
        continue;
      }
      area += d / c;
    }
  }
  if (area == 0.0) {
    return kInfinity;
  }
  return task.weight / area;
}

double DpackEfficiency(const Task& task, const BlockManager& blocks,
                       std::span<const size_t> best_alpha) {
  double cost = 0.0;
  for (BlockId j : task.blocks) {
    DPACK_CHECK(static_cast<size_t>(j) < best_alpha.size());
    size_t a = best_alpha[static_cast<size_t>(j)];
    double d = task.demand.epsilon(a);
    if (d == 0.0) {
      continue;
    }
    double c = blocks.block(j).AvailableAt(a);
    if (c <= 0.0) {
      return 0.0;  // Demands budget at a depleted best order: least attractive.
    }
    cost += d / c;
  }
  if (cost == 0.0) {
    return kInfinity;
  }
  return task.weight / cost;
}

std::vector<size_t> ComputeBestAlphas(std::span<const Task> tasks, const BlockManager& blocks,
                                      double eta) {
  DPACK_CHECK(eta > 0.0);
  size_t num_blocks = blocks.block_count();

  // Group pending tasks by requested block.
  std::vector<std::vector<size_t>> tasks_of_block(num_blocks);
  for (size_t i = 0; i < tasks.size(); ++i) {
    for (BlockId j : tasks[i].blocks) {
      DPACK_CHECK(static_cast<size_t>(j) < num_blocks);
      tasks_of_block[static_cast<size_t>(j)].push_back(i);
    }
  }

  std::vector<size_t> best_alpha(num_blocks, 0);
  for (size_t j = 0; j < num_blocks; ++j) {
    best_alpha[j] =
        BestAlphaForBlock(tasks, tasks_of_block[j], blocks.block(static_cast<BlockId>(j)), eta);
  }
  return best_alpha;
}

size_t BestAlphaForBlock(const RequesterColumns& requesters, const PrivacyBlock& block,
                         double eta) {
  DPACK_CHECK(eta > 0.0);
  size_t num_orders = block.capacity().size();
  size_t n = requesters.weights.size();
  DPACK_CHECK(n <= requesters.stride || requesters.orders.empty());
  DPACK_CHECK(requesters.lows.size() == requesters.orders.size() || n == 0);
  if (n == 0) {
    // No demand: pick the order with the largest available capacity.
    size_t best = 0;
    for (size_t a = 1; a < num_orders; ++a) {
      if (block.AvailableAt(a) > block.AvailableAt(best)) {
        best = a;
      }
    }
    return best;
  }
  const double weight = requesters.weights[0];
  bool uniform = std::all_of(requesters.weights.begin(), requesters.weights.end(),
                             [&](double w) { return w == weight; });
  std::vector<KnapsackItem> items;
  double best_value = -1.0;
  size_t best = 0;
  size_t k = 0;
  for (size_t a = 0; a < num_orders; ++a) {
    double capacity = block.AvailableAt(a);
    if (!(capacity > 0.0)) {
      continue;
    }
    while (k < requesters.orders.size() && requesters.orders[k] < a) {
      ++k;
    }
    DPACK_CHECK_MSG(k < requesters.orders.size() && requesters.orders[k] == a,
                    "no demand column for usable order " << a);
    std::span<const double> column = requesters.demands.subspan(k * requesters.stride, n);
    double profit = 0.0;
    if (uniform) {
      // Exact max cardinality: the profit is `weight` added once per taken demand,
      // MaxCardinalityKnapsack's sum bit for bit.
      DPACK_CHECK_MSG(weight >= 0.0, "profits must be non-negative");
      size_t taken = requesters.lows[k].Count(column, capacity);
      for (size_t m = 0; m < taken; ++m) {
        profit += weight;
      }
    } else {
      items.clear();
      for (size_t t = 0; t < n; ++t) {
        items.push_back({requesters.weights[t], column[t]});
      }
      profit = FptasKnapsack(items, capacity, 2.0 / 3.0 * eta).total_profit;
    }
    if (profit > best_value) {
      best_value = profit;
      best = a;
    }
  }
  if (best_value < 0.0) {
    // Block fully depleted at every order; keep order 0 (tasks demanding it score 0).
    best = 0;
  }
  return best;
}

size_t BestAlphaForBlock(std::span<const Task> tasks, std::span<const size_t> requesters,
                         const PrivacyBlock& block, double eta) {
  std::vector<size_t> orders;
  for (size_t a = 0; a < block.capacity().size(); ++a) {
    if (block.AvailableAt(a) > 0.0) {
      orders.push_back(a);
    }
  }
  size_t n = requesters.size();
  std::vector<double> weights(n);
  std::vector<double> demands(n * orders.size());
  std::vector<SmallestDemands> lows(orders.size());
  for (size_t t = 0; t < n; ++t) {
    const Task& task = tasks[requesters[t]];
    weights[t] = task.weight;
    for (size_t k = 0; k < orders.size(); ++k) {
      demands[k * n + t] = task.demand.epsilon(orders[k]);
      lows[k].Add(demands[k * n + t]);
    }
  }
  return BestAlphaForBlock(RequesterColumns{weights, orders, demands, n, lows}, block, eta);
}

}  // namespace dpack
