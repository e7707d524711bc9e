#include "src/knapsack/privacy_knapsack.h"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <limits>
#include <numeric>

#include "src/common/check.h"
#include "src/knapsack/single_dim.h"

namespace dpack {

namespace {

constexpr double kTinyCapacity = 1e-12;

void ValidateInstance(const PkInstance& instance) {
  DPACK_CHECK(instance.num_blocks > 0);
  DPACK_CHECK(instance.num_orders > 0);
  DPACK_CHECK(instance.capacity.size() == instance.num_blocks * instance.num_orders);
  for (double c : instance.capacity) {
    DPACK_CHECK_MSG(c >= 0.0, "capacities must be non-negative");
  }
  for (const auto& task : instance.tasks) {
    DPACK_CHECK_MSG(task.weight >= 0.0, "weights must be non-negative");
    DPACK_CHECK_MSG(task.demand.size() == instance.num_orders, "demand size mismatch");
    DPACK_CHECK_MSG(!task.blocks.empty(), "task must request at least one block");
    for (size_t j : task.blocks) {
      DPACK_CHECK_MSG(j < instance.num_blocks, "block index out of range");
    }
    for (double d : task.demand) {
      DPACK_CHECK_MSG(d >= 0.0, "demands must be non-negative");
    }
  }
}

// Optimistic per-task normalized size: for each requested block, the demand share at the
// most favourable order. Used only for search ordering, not for correctness.
double OptimisticShare(const PkInstance& instance, const PkTask& task) {
  double total = 0.0;
  for (size_t j : task.blocks) {
    double best = std::numeric_limits<double>::infinity();
    for (size_t a = 0; a < instance.num_orders; ++a) {
      double cap = instance.CapacityAt(j, a);
      double share = cap > kTinyCapacity ? task.demand[a] / cap
                                         : (task.demand[a] == 0.0
                                                ? 0.0
                                                : std::numeric_limits<double>::infinity());
      best = std::min(best, share);
    }
    total += best;
  }
  return total;
}

class Search {
 public:
  Search(const PkInstance& instance, const PkOptions& options)
      : instance_(instance), options_(options), start_(std::chrono::steady_clock::now()) {
    n_ = instance.tasks.size();
    consumed_.assign(instance.num_blocks * instance.num_orders, 0.0);
    BuildOrder();
    BuildSuffixSums();
    ChooseBoundBlock();
    BuildBoundLists();
  }

  PkResult Run(std::span<const size_t> seed) {
    // Seed the incumbent with a feasible greedy pass, or the caller's seed when it is
    // heavier, so pruning bites immediately.
    GreedyIncumbent();
    SeedIncumbent(seed);
    aborted_ = false;
    Dfs(0, 0.0);
    PkResult result;
    result.total_weight = best_weight_;
    result.selected = best_set_;
    std::sort(result.selected.begin(), result.selected.end());
    result.optimal = !aborted_;
    return result;
  }

 private:
  double ElapsedSeconds() const {
    return std::chrono::duration<double>(std::chrono::steady_clock::now() - start_).count();
  }

  void BuildOrder() {
    order_.resize(n_);
    std::iota(order_.begin(), order_.end(), 0);
    std::vector<double> share(n_);
    for (size_t i = 0; i < n_; ++i) {
      share[i] = OptimisticShare(instance_, instance_.tasks[i]);
    }
    std::sort(order_.begin(), order_.end(), [&](size_t a, size_t b) {
      double da = share[a] > 0.0 ? instance_.tasks[a].weight / share[a]
                                 : std::numeric_limits<double>::infinity();
      double db = share[b] > 0.0 ? instance_.tasks[b].weight / share[b]
                                 : std::numeric_limits<double>::infinity();
      if (da != db) {
        return da > db;
      }
      return a < b;
    });
  }

  void BuildSuffixSums() {
    suffix_weight_.assign(n_ + 1, 0.0);
    for (size_t pos = n_; pos-- > 0;) {
      suffix_weight_[pos] = suffix_weight_[pos + 1] + instance_.tasks[order_[pos]].weight;
    }
  }

  // Picks the most contended block for the fractional bound: highest total optimistic demand
  // share across tasks.
  void ChooseBoundBlock() {
    std::vector<double> contention(instance_.num_blocks, 0.0);
    for (const auto& task : instance_.tasks) {
      for (size_t j : task.blocks) {
        double best = std::numeric_limits<double>::infinity();
        for (size_t a = 0; a < instance_.num_orders; ++a) {
          double cap = instance_.CapacityAt(j, a);
          double share = cap > kTinyCapacity
                             ? task.demand[a] / cap
                             : (task.demand[a] == 0.0
                                    ? 0.0
                                    : std::numeric_limits<double>::infinity());
          best = std::min(best, share);
        }
        if (std::isfinite(best)) {
          contention[j] += best;
        } else {
          contention[j] += 1.0;
        }
      }
    }
    bound_block_ = static_cast<size_t>(
        std::max_element(contention.begin(), contention.end()) - contention.begin());
    suffix_weight_not_req_.assign(n_ + 1, 0.0);
    for (size_t pos = n_; pos-- > 0;) {
      const auto& task = instance_.tasks[order_[pos]];
      bool requests = std::find(task.blocks.begin(), task.blocks.end(), bound_block_) !=
                      task.blocks.end();
      suffix_weight_not_req_[pos] =
          suffix_weight_not_req_[pos + 1] + (requests ? 0.0 : task.weight);
    }
  }

  // For each order alpha, the tasks requesting bound_block_ sorted by weight/demand density,
  // tagged with their DFS position so a node can restrict to its suffix.
  void BuildBoundLists() {
    std::vector<size_t> pos_of(n_);
    for (size_t pos = 0; pos < n_; ++pos) {
      pos_of[order_[pos]] = pos;
    }
    bound_lists_.assign(instance_.num_orders, {});
    for (size_t i = 0; i < n_; ++i) {
      const auto& task = instance_.tasks[i];
      if (std::find(task.blocks.begin(), task.blocks.end(), bound_block_) == task.blocks.end()) {
        continue;
      }
      for (size_t a = 0; a < instance_.num_orders; ++a) {
        bound_lists_[a].push_back(
            {pos_of[i], instance_.tasks[i].weight, instance_.tasks[i].demand[a]});
      }
    }
    for (auto& list : bound_lists_) {
      std::sort(list.begin(), list.end(), [](const BoundEntry& x, const BoundEntry& y) {
        bool x_free = x.demand == 0.0;
        bool y_free = y.demand == 0.0;
        if (x_free != y_free) {
          return x_free;
        }
        if (x_free) {
          return x.weight > y.weight;
        }
        double dx = x.weight / x.demand;
        double dy = y.weight / y.demand;
        if (dx != dy) {
          return dx > dy;
        }
        return x.pos < y.pos;
      });
    }
  }

  // Admits with a strict `<=` and no WithinCapacity slack, on purpose. The search sums
  // demands over *remaining* capacity from zero in its own order; OptimalScheduler then
  // commits the selection to the blocks in index order, which rounds differently. A slack
  // here could admit a selection one ulp past the block's cap + slack, and the commit would
  // trip "optimal solution rejected by filter". With none it cannot: the block's slack is far
  // larger than any reordering error.
  bool CanAdd(const PkTask& task) const {
    for (size_t j : task.blocks) {
      bool fits = false;
      for (size_t a = 0; a < instance_.num_orders; ++a) {
        double cap = instance_.CapacityAt(j, a);
        if (cap <= 0.0) {
          continue;  // Unusable order: cannot certify the guarantee (filter semantics).
        }
        if (consumed_[j * instance_.num_orders + a] + task.demand[a] <= cap) {
          fits = true;
          break;
        }
      }
      if (!fits) {
        return false;
      }
    }
    return true;
  }

  void Apply(const PkTask& task, double sign) {
    for (size_t j : task.blocks) {
      for (size_t a = 0; a < instance_.num_orders; ++a) {
        consumed_[j * instance_.num_orders + a] += sign * task.demand[a];
      }
    }
  }

  void GreedyIncumbent() {
    std::vector<size_t> picked;
    double weight = 0.0;
    for (size_t pos = 0; pos < n_; ++pos) {
      const auto& task = instance_.tasks[order_[pos]];
      if (CanAdd(task)) {
        Apply(task, +1.0);
        picked.push_back(order_[pos]);
        weight += task.weight;
      }
    }
    for (size_t idx : picked) {
      Apply(instance_.tasks[idx], -1.0);
    }
    best_weight_ = weight;
    best_set_ = std::move(picked);
  }

  // Takes `seed` as the incumbent when every task of it fits under CanAdd and it outweighs
  // the incumbent; a seed that does not fit is ignored.
  void SeedIncumbent(std::span<const size_t> seed) {
    std::vector<double> saved = consumed_;
    double weight = 0.0;
    bool fits = true;
    for (size_t idx : seed) {
      DPACK_CHECK_MSG(idx < n_, "seed task index out of range");
      const PkTask& task = instance_.tasks[idx];
      fits = CanAdd(task);
      if (!fits) {
        break;
      }
      Apply(task, +1.0);
      weight += task.weight;
    }
    consumed_ = std::move(saved);
    if (fits && weight > best_weight_) {
      best_weight_ = weight;
      best_set_.assign(seed.begin(), seed.end());
    }
  }

  // Upper bound on the weight attainable from positions >= pos given current consumption:
  // tasks not touching the bound block contribute fully; tasks touching it are bounded by the
  // best single-order fractional fill (valid because the final set must fit at SOME order).
  double UpperBound(size_t pos) const {
    double best_fill = 0.0;
    for (size_t a = 0; a < instance_.num_orders; ++a) {
      double cap = instance_.CapacityAt(bound_block_, a);
      if (cap <= 0.0) {
        continue;  // Unusable order.
      }
      double remaining = cap - consumed_[bound_block_ * instance_.num_orders + a];
      if (remaining < 0.0) {
        remaining = 0.0;
      }
      double fill = 0.0;
      for (const auto& entry : bound_lists_[a]) {
        if (entry.pos < pos) {
          continue;
        }
        if (entry.demand == 0.0) {
          fill += entry.weight;
          continue;
        }
        if (remaining <= 0.0) {
          break;
        }
        if (entry.demand <= remaining) {
          remaining -= entry.demand;
          fill += entry.weight;
        } else {
          fill += entry.weight * (remaining / entry.demand);
          remaining = 0.0;
          break;
        }
      }
      best_fill = std::max(best_fill, fill);
      if (best_fill >= suffix_weight_[pos] - suffix_weight_not_req_[pos]) {
        break;  // Cannot exceed the total requesting-weight anyway.
      }
    }
    return suffix_weight_not_req_[pos] + best_fill;
  }

  void Dfs(size_t pos, double weight) {
    if (aborted_) {
      return;
    }
    ++nodes_;
    if (nodes_ > options_.max_nodes) {
      aborted_ = true;
      return;
    }
    if ((nodes_ & 0xFFF) == 0 && ElapsedSeconds() > options_.time_limit_seconds) {
      aborted_ = true;
      return;
    }
    if (weight > best_weight_) {
      best_weight_ = weight;
      best_set_ = current_;
    }
    if (pos == n_) {
      return;
    }
    if (weight + suffix_weight_[pos] <= best_weight_) {
      return;  // Even taking everything cannot beat the incumbent.
    }
    if (weight + UpperBound(pos) <= best_weight_) {
      return;
    }
    const auto& task = instance_.tasks[order_[pos]];
    if (CanAdd(task)) {
      Apply(task, +1.0);
      current_.push_back(order_[pos]);
      Dfs(pos + 1, weight + task.weight);
      current_.pop_back();
      Apply(task, -1.0);
    }
    Dfs(pos + 1, weight);
  }

  struct BoundEntry {
    size_t pos;
    double weight;
    double demand;
  };

  const PkInstance& instance_;
  const PkOptions& options_;
  std::chrono::steady_clock::time_point start_;
  size_t n_ = 0;
  std::vector<size_t> order_;
  std::vector<double> suffix_weight_;
  std::vector<double> suffix_weight_not_req_;
  size_t bound_block_ = 0;
  std::vector<std::vector<BoundEntry>> bound_lists_;
  std::vector<double> consumed_;
  std::vector<size_t> current_;
  std::vector<size_t> best_set_;
  double best_weight_ = 0.0;
  uint64_t nodes_ = 0;
  bool aborted_ = false;
};

bool UniformWeights(const PkInstance& instance) {
  for (const auto& task : instance.tasks) {
    if (task.weight != instance.tasks[0].weight) {
      return false;
    }
  }
  return true;
}

// Single-block instances decompose exactly: a set is feasible iff it fits at SOME order, so
// the optimum is the max over orders of the single-dimension optimum at that order. With
// uniform weights each per-order problem is max-cardinality (MaxCardinalityKnapsack) —
// polynomial.
PkResult SolveSingleBlockUniform(const PkInstance& instance) {
  PkResult best;
  best.optimal = true;
  for (size_t a = 0; a < instance.num_orders; ++a) {
    if (instance.CapacityAt(0, a) <= 0.0) {
      continue;  // Unusable order (filter semantics).
    }
    std::vector<KnapsackItem> items;
    items.reserve(instance.tasks.size());
    for (const auto& task : instance.tasks) {
      items.push_back({task.weight, task.demand[a]});
    }
    KnapsackSolution sol = MaxCardinalityKnapsack(items, instance.CapacityAt(0, a));
    if (sol.total_profit > best.total_weight) {
      best.total_weight = sol.total_profit;
      best.selected = std::move(sol.selected);
    }
  }
  return best;
}

}  // namespace

PkResult SolvePrivacyKnapsackExact(const PkInstance& instance, const PkOptions& options,
                                   std::span<const size_t> seed) {
  ValidateInstance(instance);
  if (instance.tasks.empty()) {
    PkResult result;
    result.optimal = true;
    return result;
  }
  if (instance.num_blocks == 1 && UniformWeights(instance)) {
    return SolveSingleBlockUniform(instance);
  }
  Search search(instance, options);
  return search.Run(seed);
}

PkResult SolvePrivacyKnapsackBruteForce(const PkInstance& instance) {
  ValidateInstance(instance);
  DPACK_CHECK_MSG(instance.tasks.size() <= 25, "brute force limited to 25 tasks");
  size_t n = instance.tasks.size();
  PkResult best;
  best.optimal = true;
  std::vector<double> consumed(instance.num_blocks * instance.num_orders);
  std::vector<bool> touched(instance.num_blocks);
  for (uint64_t mask = 0; mask < (uint64_t{1} << n); ++mask) {
    std::fill(consumed.begin(), consumed.end(), 0.0);
    std::fill(touched.begin(), touched.end(), false);
    double weight = 0.0;
    for (size_t i = 0; i < n; ++i) {
      if ((mask >> i) & 1) {
        weight += instance.tasks[i].weight;
        for (size_t j : instance.tasks[i].blocks) {
          touched[j] = true;
          for (size_t a = 0; a < instance.num_orders; ++a) {
            consumed[j * instance.num_orders + a] += instance.tasks[i].demand[a];
          }
        }
      }
    }
    if (weight <= best.total_weight) {
      continue;
    }
    // A block constrains only the tasks that request it; usable orders need capacity > 0.
    // Strict `<=` with no slack, like the exact search's CanAdd (see there): both answer the
    // same problem, and a selection they admit always commits through the blocks' filter.
    bool feasible = true;
    for (size_t j = 0; j < instance.num_blocks && feasible; ++j) {
      if (!touched[j]) {
        continue;
      }
      bool block_ok = false;
      for (size_t a = 0; a < instance.num_orders; ++a) {
        if (instance.CapacityAt(j, a) > 0.0 &&
            consumed[j * instance.num_orders + a] <= instance.CapacityAt(j, a)) {
          block_ok = true;
          break;
        }
      }
      feasible = block_ok;
    }
    if (feasible) {
      best.total_weight = weight;
      best.selected.clear();
      for (size_t i = 0; i < n; ++i) {
        if ((mask >> i) & 1) {
          best.selected.push_back(i);
        }
      }
    }
  }
  return best;
}

}  // namespace dpack
