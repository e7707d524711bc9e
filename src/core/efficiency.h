// Task efficiency metrics for greedy privacy scheduling (§3.1–§3.3).
//
// The metrics read the blocks as they stand (`PrivacyBlock::AvailableAt` and `capacity()`).
// Area and DPack normalize a task's demand by the *available* (unlocked, un-consumed)
// capacity of the blocks it requests at scheduling time — the c_{j alpha} of Eqs. 4 and 6;
// DPF normalizes by the total capacity. Orders with zero capacity are unusable under the
// global guarantee and are skipped when looking for dominant shares / best alphas. Both
// greedy paths score before the cycle's first commit, so every score of a cycle sees the
// same block state.

#ifndef SRC_CORE_EFFICIENCY_H_
#define SRC_CORE_EFFICIENCY_H_

#include <cstddef>
#include <span>
#include <vector>

#include "src/block/block_manager.h"
#include "src/core/task.h"
#include "src/knapsack/single_dim.h"

namespace dpack {

// DPF's metric (§3.1/§3.2): e_i = w_i / max_{j, alpha} (d_{i j alpha} / c_{j alpha}), the
// weighted inverse dominant share, with c the block's *total* budget (PrivateKube computes
// each task's dominant share once, against the fixed global budget). Returns 0 if some
// requested block has no usable order (dominant share is infinite).
double DpfEfficiency(const Task& task, const BlockManager& blocks);

// The dominant share itself: max_{j, alpha: c > 0} d / c over total capacity; +infinity if a
// positive demand meets a block with no usable order.
double DominantShare(const Task& task, const BlockManager& blocks);

// Area metric for traditional multidimensional knapsack (Eq. 4), summing the demand share at
// *every* order of every requested block. Used by the ablation scheduler that is
// block-aware but not best-alpha-aware.
double AreaEfficiency(const Task& task, const BlockManager& blocks);

// DPack's metric (Eq. 6): demand shares counted only at each block's best alpha.
// `best_alpha` maps BlockId -> order index. Returns 0 when a requested block's best order
// has zero available capacity while the task demands budget there.
double DpackEfficiency(const Task& task, const BlockManager& blocks,
                       std::span<const size_t> best_alpha);

// COMPUTE_BESTALPHA (Alg. 1): for every block, solves one single-block knapsack per order
// over the pending tasks requesting that block (profit w_i, demand d_i(alpha), capacity
// c_{j alpha}) and returns the order index maximizing the (approximate) attainable weight
// w-hat-max. Blocks requested by no task get their largest-capacity order.
// `eta` is DPack's approximation parameter; the subproblems are solved to (2/3) eta.
std::vector<size_t> ComputeBestAlphas(std::span<const Task> tasks, const BlockManager& blocks,
                                      double eta);

// One block's requesters as demand columns, in batch order: requester t has weight
// weights[t] and demand demands[k * stride + t] at order orders[k]. `orders` ascends and must
// name every order at which the block has available capacity; columns for orders without
// it are never read. lows[k] is column k's SmallestDemands (it may be empty when there are no
// requesters).
struct RequesterColumns {
  std::span<const double> weights;
  std::span<const size_t> orders;
  std::span<const double> demands;
  size_t stride = 0;  // >= weights.size().
  std::span<SmallestDemands> lows;
};

// One block's COMPUTE_BESTALPHA subproblem. Returns the first order maximizing the
// attainable weight against `block.AvailableAt`, over the orders where it is > 0. It is
// exact when the requesters' weights are uniform: max cardinality, by SmallestDemands::Count
// on each column, which is O(taken) while the column's held smallest demands settle it, one
// pass over the column when fewer than 8 fit, and O(n + m log n) for m taken otherwise.
// Otherwise it is the (2/3) eta FPTAS, fed the requesters in column order. Returns the
// largest-available-capacity order when there are no requesters and order 0 when every
// order is depleted. Aborts if `orders` misses an order with available capacity.
size_t BestAlphaForBlock(const RequesterColumns& requesters, const PrivacyBlock& block,
                         double eta);

// The same subproblem with `requesters` indexing into `tasks` the pending tasks requesting
// the block, in batch order: gathers their weights and demands at the usable orders into
// columns (with their summaries) and calls the form above. ComputeBestAlphas calls this
// form, and the incremental engine keeps the columns as state, so all of their best alphas
// come from one core and are identical by construction.
size_t BestAlphaForBlock(std::span<const Task> tasks, std::span<const size_t> requesters,
                         const PrivacyBlock& block, double eta);

}  // namespace dpack

#endif  // SRC_CORE_EFFICIENCY_H_
