// Exact solver for the privacy knapsack problem (Eq. 5) — the paper's "Optimal" baseline.
//
//   max  sum_i w_i x_i   s.t.  for every block j there EXISTS an order alpha with
//                              sum_i d_{i j alpha} x_i <= c_{j alpha}.
//
// The problem is NP-hard (Prop. 1) and has no FPTAS for >= 2 blocks (Prop. 3); this solver is
// a depth-first branch-and-bound intended for small instances, mirroring the paper's use of
// Gurobi: exact on a few hundred tasks, intractable beyond (Fig. 5a). A node/time budget
// bounds the search; when exhausted the best incumbent is returned with `optimal == false`.
//
// Feasibility is monotone: demands are non-negative, so any subset of a feasible set is
// feasible; depth-first construction with incremental filter checks therefore enumerates
// exactly the feasible sets.

#ifndef SRC_KNAPSACK_PRIVACY_KNAPSACK_H_
#define SRC_KNAPSACK_PRIVACY_KNAPSACK_H_

#include <cstddef>
#include <cstdint>
#include <span>
#include <vector>

namespace dpack {

// One task of a privacy-knapsack instance. `demand[alpha]` is charged to every block in
// `blocks` (the paper's workloads demand the same RDP curve from each requested block).
struct PkTask {
  double weight = 1.0;
  std::vector<size_t> blocks;   // Indices in [0, num_blocks).
  std::vector<double> demand;   // One entry per order; size == num_orders.
};

struct PkInstance {
  size_t num_blocks = 0;
  size_t num_orders = 0;
  // capacity[j * num_orders + alpha] = c_{j alpha}.
  std::vector<double> capacity;
  std::vector<PkTask> tasks;

  double CapacityAt(size_t block, size_t order) const {
    return capacity[block * num_orders + order];
  }
};

struct PkOptions {
  uint64_t max_nodes = 50'000'000;  // Search-node budget.
  double time_limit_seconds = 60.0;  // Wall-clock budget.
};

struct PkResult {
  double total_weight = 0.0;
  std::vector<size_t> selected;  // Task indices, ascending.
  bool optimal = false;          // True iff the search completed within budget.
};

// Runs the branch-and-bound. Deterministic for a fixed instance (the time limit only stops
// the search; the incumbent sequence itself is deterministic). `seed` is a selection of
// distinct task indices found elsewhere (OptimalScheduler passes DPack's): when it fits under
// the search's own strict `<=` and outweighs the greedy incumbent, the search starts from
// it, so a stopped search never returns less than a seed that fits.
PkResult SolvePrivacyKnapsackExact(const PkInstance& instance, const PkOptions& options = {},
                                   std::span<const size_t> seed = {});

// Exhaustive 2^n reference for tests. Requires instance.tasks.size() <= 25.
PkResult SolvePrivacyKnapsackBruteForce(const PkInstance& instance);

}  // namespace dpack

#endif  // SRC_KNAPSACK_PRIVACY_KNAPSACK_H_
