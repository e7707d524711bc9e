#include "src/knapsack/single_dim.h"

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <functional>
#include <limits>
#include <numeric>
#include <utility>

#include "src/common/check.h"

namespace dpack {

namespace {

void ValidateItems(std::span<const KnapsackItem> items) {
  for (const auto& item : items) {
    DPACK_CHECK_MSG(item.profit >= 0.0, "profits must be non-negative");
    DPACK_CHECK_MSG(item.demand >= 0.0, "demands must be non-negative");
  }
}

// Indices sorted by profit density descending; zero-demand items first (infinite density),
// ties broken by smaller demand.
std::vector<size_t> DensityOrder(std::span<const KnapsackItem> items) {
  std::vector<size_t> order(items.size());
  std::iota(order.begin(), order.end(), 0);
  std::sort(order.begin(), order.end(), [&](size_t a, size_t b) {
    const auto& ia = items[a];
    const auto& ib = items[b];
    bool a_free = ia.demand == 0.0;
    bool b_free = ib.demand == 0.0;
    if (a_free != b_free) {
      return a_free;
    }
    if (a_free && b_free) {
      return ia.profit > ib.profit;
    }
    double da = ia.profit / ia.demand;
    double db = ib.profit / ib.demand;
    if (da != db) {
      return da > db;
    }
    return ia.demand < ib.demand;
  });
  return order;
}

double DemandOf(double demand) { return demand; }
double DemandOf(const std::pair<double, size_t>& demand_index) { return demand_index.first; }

// The max-cardinality rule, written once: take demands in ascending order while the running
// sum fits. A demand above capacity can never be taken and sorts after every demand that can,
// so the survivors are compacted to the front, heapified as a min-heap, and popped in
// ascending order until one does not fit. The additions to `used` run in ascending order, as
// a full sort's prefix scan would. Returns the taken elements (last taken first), a subspan of
// `elems`, which is reordered in place. O(n + m log n) for m taken.
template <typename T>
std::span<T> TakeAscendingPrefix(std::span<T> elems, double capacity) {
  size_t survivors = 0;
  for (const T& elem : elems) {
    double demand = DemandOf(elem);
    DPACK_CHECK_MSG(demand >= 0.0, "demands must be non-negative");
    if (demand <= capacity) {
      elems[survivors++] = elem;
    }
  }
  auto first = elems.begin();
  auto heap_end = first + static_cast<std::ptrdiff_t>(survivors);
  std::make_heap(first, heap_end, std::greater<>());
  double used = 0.0;
  while (heap_end != first && used + DemandOf(*first) <= capacity) {
    used += DemandOf(*first);
    std::pop_heap(first, heap_end, std::greater<>());
    --heap_end;
  }
  return elems.subspan(static_cast<size_t>(heap_end - first),
                       survivors - static_cast<size_t>(heap_end - first));
}

}  // namespace

KnapsackSolution MaxCardinalityKnapsack(std::span<const KnapsackItem> items, double capacity) {
  ValidateItems(items);
  // Ties on demand pop in index order, so the selection is deterministic.
  std::vector<std::pair<double, size_t>> demands(items.size());
  for (size_t i = 0; i < items.size(); ++i) {
    demands[i] = {items[i].demand, i};
  }
  std::span<std::pair<double, size_t>> taken =
      TakeAscendingPrefix(std::span<std::pair<double, size_t>>(demands), capacity);
  KnapsackSolution solution;
  solution.selected.reserve(taken.size());
  for (auto it = taken.rbegin(); it != taken.rend(); ++it) {  // Ascending demand.
    solution.total_profit += items[it->second].profit;
    solution.selected.push_back(it->second);
  }
  std::sort(solution.selected.begin(), solution.selected.end());
  return solution;
}

size_t MaxCardinalityCount(std::span<double> demands, double capacity) {
  return TakeAscendingPrefix(demands, capacity).size();
}

KnapsackSolution GreedyDensityKnapsack(std::span<const KnapsackItem> items, double capacity) {
  ValidateItems(items);
  KnapsackSolution greedy;
  double used = 0.0;
  for (size_t idx : DensityOrder(items)) {
    if (used + items[idx].demand <= capacity) {
      used += items[idx].demand;
      greedy.total_profit += items[idx].profit;
      greedy.selected.push_back(idx);
    }
  }
  // Best single item: together with the greedy prefix this yields the 1/2 guarantee.
  size_t best_single = items.size();
  double best_single_profit = 0.0;
  for (size_t i = 0; i < items.size(); ++i) {
    if (items[i].demand <= capacity && items[i].profit > best_single_profit) {
      best_single_profit = items[i].profit;
      best_single = i;
    }
  }
  if (best_single != items.size() && best_single_profit > greedy.total_profit) {
    greedy.total_profit = best_single_profit;
    greedy.selected.assign(1, best_single);
  }
  std::sort(greedy.selected.begin(), greedy.selected.end());
  return greedy;
}

double FractionalKnapsackBound(std::span<const KnapsackItem> items, double capacity) {
  ValidateItems(items);
  double remaining = capacity;
  double bound = 0.0;
  for (size_t idx : DensityOrder(items)) {
    const auto& item = items[idx];
    if (item.demand == 0.0) {
      bound += item.profit;
      continue;
    }
    if (remaining <= 0.0) {
      break;
    }
    if (item.demand <= remaining) {
      remaining -= item.demand;
      bound += item.profit;
    } else {
      bound += item.profit * (remaining / item.demand);
      remaining = 0.0;
      break;
    }
  }
  return bound;
}

KnapsackSolution FptasKnapsack(std::span<const KnapsackItem> items, double capacity, double eta,
                               size_t max_states) {
  ValidateItems(items);
  DPACK_CHECK(eta > 0.0);
  if (items.empty()) {
    return {};
  }
  double max_profit = 0.0;
  for (const auto& item : items) {
    if (item.demand <= capacity) {
      max_profit = std::max(max_profit, item.profit);
    }
  }
  if (max_profit == 0.0) {
    return {};  // Nothing fits, or everything that fits has zero profit.
  }
  // Profit scaling: scaled_i = floor(profit_i / k) with k = eta * max_profit / n guarantees
  // a (1 + eta) approximation (Kellerer et al., ch. 2).
  const double k = eta * max_profit / static_cast<double>(items.size());
  std::vector<int64_t> scaled(items.size(), 0);
  int64_t total_scaled = 0;
  for (size_t i = 0; i < items.size(); ++i) {
    if (items[i].demand > capacity) {
      scaled[i] = -1;  // Can never be packed.
      continue;
    }
    scaled[i] = static_cast<int64_t>(std::floor(items[i].profit / k));
    total_scaled += scaled[i];
  }
  size_t states = static_cast<size_t>(total_scaled) + 1;
  // The DP costs O(n * states) time, not just O(states) memory: fall back to the greedy
  // 1/2-approximation when either the table or the work would be excessive (large scheduler
  // batches hit this every cycle; greedy keeps DPack's per-cycle cost near-linear).
  constexpr size_t kMaxWork = 64'000'000;
  if (states > max_states || states == 0 || states > kMaxWork / std::max<size_t>(1, items.size())) {
    return GreedyDensityKnapsack(items, capacity);
  }

  constexpr double kInf = std::numeric_limits<double>::infinity();
  std::vector<double> min_demand(states, kInf);
  min_demand[0] = 0.0;
  // Reconstruction: a node pool of (item, parent) links; node_of[s] is the chain giving the
  // min_demand[s] set. Chains are snapshots, so later dp updates cannot corrupt them.
  struct Node {
    uint32_t item;
    int32_t parent;
  };
  std::vector<Node> pool;
  std::vector<int32_t> node_of(states, -1);

  int64_t reachable = 0;
  for (size_t i = 0; i < items.size(); ++i) {
    if (scaled[i] < 0) {
      continue;
    }
    reachable += scaled[i];
    int64_t upper = std::min<int64_t>(reachable, static_cast<int64_t>(states) - 1);
    for (int64_t s = upper; s >= scaled[i]; --s) {
      int64_t p = s - scaled[i];
      if (min_demand[static_cast<size_t>(p)] == kInf) {
        continue;
      }
      double candidate = min_demand[static_cast<size_t>(p)] + items[i].demand;
      if (candidate < min_demand[static_cast<size_t>(s)] && candidate <= capacity) {
        min_demand[static_cast<size_t>(s)] = candidate;
        pool.push_back({static_cast<uint32_t>(i), node_of[static_cast<size_t>(p)]});
        node_of[static_cast<size_t>(s)] = static_cast<int32_t>(pool.size()) - 1;
      }
    }
  }

  // Best reachable scaled profit within capacity.
  size_t best_state = 0;
  for (size_t s = states; s-- > 0;) {
    if (min_demand[s] <= capacity) {
      best_state = s;
      break;
    }
  }
  KnapsackSolution solution;
  for (int32_t node = node_of[best_state]; node >= 0;
       node = pool[static_cast<size_t>(node)].parent) {
    size_t item = pool[static_cast<size_t>(node)].item;
    solution.selected.push_back(item);
    solution.total_profit += items[item].profit;
  }
  std::sort(solution.selected.begin(), solution.selected.end());
  return solution;
}

namespace {

struct BranchAndBoundState {
  std::span<const KnapsackItem> items;
  std::vector<size_t> order;  // Density order.
  double capacity = 0.0;
  double best_profit = 0.0;
  std::vector<size_t> best_set;
  std::vector<size_t> current;

  void Dfs(size_t pos, double used, double profit) {
    if (profit > best_profit) {
      best_profit = profit;
      best_set = current;
    }
    if (pos == order.size()) {
      return;
    }
    // Fractional bound over the remaining suffix.
    double bound = profit;
    double remaining = capacity - used;
    for (size_t i = pos; i < order.size() && remaining > 0.0; ++i) {
      const auto& item = items[order[i]];
      if (item.demand <= remaining) {
        remaining -= item.demand;
        bound += item.profit;
      } else if (item.demand > 0.0) {
        bound += item.profit * (remaining / item.demand);
        remaining = 0.0;
      }
    }
    if (bound <= best_profit) {
      return;
    }
    const auto& item = items[order[pos]];
    if (used + item.demand <= capacity) {
      current.push_back(order[pos]);
      Dfs(pos + 1, used + item.demand, profit + item.profit);
      current.pop_back();
    }
    Dfs(pos + 1, used, profit);
  }
};

}  // namespace

KnapsackSolution ExactKnapsack(std::span<const KnapsackItem> items, double capacity) {
  ValidateItems(items);
  BranchAndBoundState state;
  state.items = items;
  state.order = DensityOrder(items);
  state.capacity = capacity;
  state.Dfs(0, 0.0, 0.0);
  KnapsackSolution solution;
  solution.total_profit = state.best_profit;
  solution.selected = std::move(state.best_set);
  std::sort(solution.selected.begin(), solution.selected.end());
  return solution;
}

}  // namespace dpack
