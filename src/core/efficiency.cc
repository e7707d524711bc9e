#include "src/core/efficiency.h"

#include <algorithm>
#include <limits>

#include "src/common/check.h"
#include "src/knapsack/single_dim.h"

namespace dpack {

namespace {

constexpr double kInfinity = std::numeric_limits<double>::infinity();

}  // namespace

CapacitySnapshot::CapacitySnapshot(const BlockManager& blocks) : grid_(blocks.grid()) {
  available_.reserve(blocks.block_count());
  total_.reserve(blocks.block_count());
  for (size_t j = 0; j < blocks.block_count(); ++j) {
    available_.push_back(blocks.block(static_cast<BlockId>(j)).AvailableCurve());
    total_.push_back(blocks.block(static_cast<BlockId>(j)).capacity());
  }
}

CapacitySnapshot::CapacitySnapshot(AlphaGridPtr grid) : grid_(std::move(grid)) {
  DPACK_CHECK(grid_ != nullptr);
}

void CapacitySnapshot::Append(RdpCurve available, RdpCurve total) {
  available_.push_back(std::move(available));
  total_.push_back(std::move(total));
}

void CapacitySnapshot::RefreshAvailable(BlockId id, RdpCurve available) {
  DPACK_CHECK(id >= 0 && static_cast<size_t>(id) < available_.size());
  available_[static_cast<size_t>(id)] = std::move(available);
}

const RdpCurve& CapacitySnapshot::available(BlockId id) const {
  DPACK_CHECK(id >= 0 && static_cast<size_t>(id) < available_.size());
  return available_[static_cast<size_t>(id)];
}

const RdpCurve& CapacitySnapshot::total(BlockId id) const {
  DPACK_CHECK(id >= 0 && static_cast<size_t>(id) < total_.size());
  return total_[static_cast<size_t>(id)];
}

double DominantShare(const Task& task, const CapacitySnapshot& snapshot) {
  double dominant = 0.0;
  for (BlockId j : task.blocks) {
    const RdpCurve& cap = snapshot.total(j);
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

double DpfEfficiency(const Task& task, const CapacitySnapshot& snapshot) {
  double share = DominantShare(task, snapshot);
  if (share == 0.0) {
    return kInfinity;
  }
  if (share == kInfinity) {
    return 0.0;
  }
  return task.weight / share;
}

double AreaEfficiency(const Task& task, const CapacitySnapshot& snapshot) {
  double area = 0.0;
  for (BlockId j : task.blocks) {
    const RdpCurve& cap = snapshot.available(j);
    for (size_t a = 0; a < cap.size(); ++a) {
      double d = task.demand.epsilon(a);
      if (d == 0.0) {
        continue;
      }
      if (cap.epsilon(a) <= 0.0) {
        // Demand on an unusable order contributes nothing under the exists-alpha semantic;
        // the traditional interpretation (all orders binding) would make this infinite.
        // We skip it so the metric degrades gracefully on RDP instances.
        continue;
      }
      area += d / cap.epsilon(a);
    }
  }
  if (area == 0.0) {
    return kInfinity;
  }
  return task.weight / area;
}

double DpackEfficiency(const Task& task, const CapacitySnapshot& snapshot,
                       std::span<const size_t> best_alpha) {
  double cost = 0.0;
  for (BlockId j : task.blocks) {
    DPACK_CHECK(static_cast<size_t>(j) < best_alpha.size());
    size_t a = best_alpha[static_cast<size_t>(j)];
    double d = task.demand.epsilon(a);
    if (d == 0.0) {
      continue;
    }
    double c = snapshot.available(j).epsilon(a);
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

std::vector<size_t> ComputeBestAlphas(std::span<const Task> tasks,
                                      const CapacitySnapshot& snapshot, double eta) {
  DPACK_CHECK(eta > 0.0);
  size_t num_blocks = snapshot.block_count();

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
    best_alpha[j] = BestAlphaForBlock(tasks, tasks_of_block[j],
                                      snapshot.available(static_cast<BlockId>(j)), eta);
  }
  return best_alpha;
}

size_t BestAlphaForBlock(std::span<const Task> tasks, std::span<const size_t> requesters,
                         const RdpCurve& available, double eta) {
  DPACK_CHECK(eta > 0.0);
  size_t num_orders = available.size();
  if (requesters.empty()) {
    // No demand: pick the order with the largest available capacity.
    size_t best = 0;
    for (size_t a = 1; a < num_orders; ++a) {
      if (available.epsilon(a) > available.epsilon(best)) {
        best = a;
      }
    }
    return best;
  }
  const double weight = tasks[requesters[0]].weight;
  bool uniform = std::all_of(requesters.begin(), requesters.end(),
                             [&](size_t i) { return tasks[i].weight == weight; });
  double best_value = -1.0;
  size_t best = 0;
  if (uniform) {
    // Exact max cardinality. Gather every requester's demands at the usable orders into one
    // order-major buffer, task by task, then count each order's ascending prefix; the profit
    // is `weight` added once per taken demand, MaxCardinalityKnapsack's sum bit for bit.
    std::vector<size_t> usable;
    for (size_t a = 0; a < num_orders; ++a) {
      if (available.epsilon(a) > 0.0) {
        usable.push_back(a);
      }
    }
    if (!usable.empty()) {
      DPACK_CHECK_MSG(weight >= 0.0, "profits must be non-negative");
    }
    size_t n = requesters.size();
    std::vector<double> demands(n * usable.size());
    for (size_t t = 0; t < n; ++t) {
      const RdpCurve& demand = tasks[requesters[t]].demand;
      for (size_t k = 0; k < usable.size(); ++k) {
        demands[k * n + t] = demand.epsilon(usable[k]);
      }
    }
    for (size_t k = 0; k < usable.size(); ++k) {
      size_t taken = MaxCardinalityCount(std::span<double>(demands).subspan(k * n, n),
                                         available.epsilon(usable[k]));
      double profit = 0.0;
      for (size_t m = 0; m < taken; ++m) {
        profit += weight;
      }
      if (profit > best_value) {
        best_value = profit;
        best = usable[k];
      }
    }
  } else {
    std::vector<KnapsackItem> items;
    items.reserve(requesters.size());
    for (size_t a = 0; a < num_orders; ++a) {
      if (available.epsilon(a) <= 0.0) {
        continue;
      }
      items.clear();
      for (size_t i : requesters) {
        items.push_back({tasks[i].weight, tasks[i].demand.epsilon(a)});
      }
      KnapsackSolution sol = FptasKnapsack(items, available.epsilon(a), 2.0 / 3.0 * eta);
      if (sol.total_profit > best_value) {
        best_value = sol.total_profit;
        best = a;
      }
    }
  }
  if (best_value < 0.0) {
    // Block fully depleted at every order; keep order 0 (tasks demanding it score 0).
    best = 0;
  }
  return best;
}

}  // namespace dpack
