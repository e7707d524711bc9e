// Task efficiency metrics for greedy privacy scheduling (§3.1–§3.3).
//
// All metrics normalize a task's demand by the *available* (unlocked, un-consumed) capacity
// of the blocks it requests at scheduling time — the c_{j alpha} of Eqs. 4 and 6. Orders with
// zero available capacity are unusable under the global guarantee and are skipped when
// looking for dominant shares / best alphas.

#ifndef SRC_CORE_EFFICIENCY_H_
#define SRC_CORE_EFFICIENCY_H_

#include <cstddef>
#include <span>
#include <vector>

#include "src/block/block_manager.h"
#include "src/core/task.h"
#include "src/knapsack/single_dim.h"

namespace dpack {

// Snapshot of per-block capacity taken once per scheduling cycle. Carries both the block's
// total capacity (DPF normalizes dominant shares against the fixed global budget, as in
// PrivateKube, where shares are computed once per task) and the remaining available capacity
// (Eqs. 4 and 6 normalize by remaining capacity).
class CapacitySnapshot {
 public:
  explicit CapacitySnapshot(const BlockManager& blocks);

  // Empty snapshot for incremental maintenance (IncrementalEngine): blocks are appended as
  // they arrive and their available curves refreshed in place when their version changes.
  // A snapshot kept in sync this way is bit-identical to one rebuilt from scratch, because
  // a block whose version is unchanged recomputes the exact same AvailableCurve().
  explicit CapacitySnapshot(AlphaGridPtr grid);

  // Appends the state of the next block (id == block_count() before the call).
  void Append(RdpCurve available, RdpCurve total);
  // Replaces the available curve of an existing block (after a commit or unlock).
  void RefreshAvailable(BlockId id, RdpCurve available);

  // Available capacity curve of block `id` (max(0, unlocked - consumed) per order).
  const RdpCurve& available(BlockId id) const;
  // Total capacity curve of block `id` (the fixed per-order global budget).
  const RdpCurve& total(BlockId id) const;
  size_t block_count() const { return available_.size(); }
  const AlphaGridPtr& grid() const { return grid_; }

 private:
  AlphaGridPtr grid_;
  std::vector<RdpCurve> available_;
  std::vector<RdpCurve> total_;
};

// DPF's metric (§3.1/§3.2): e_i = w_i / max_{j, alpha} (d_{i j alpha} / c_{j alpha}), the
// weighted inverse dominant share, with c the block's *total* budget (PrivateKube computes
// each task's dominant share once, against the fixed global budget). Returns 0 if some
// requested block has no usable order (dominant share is infinite).
double DpfEfficiency(const Task& task, const CapacitySnapshot& snapshot);

// The dominant share itself: max_{j, alpha: c > 0} d / c over total capacity; +infinity if a
// positive demand meets a block with no usable order.
double DominantShare(const Task& task, const CapacitySnapshot& snapshot);

// Area metric for traditional multidimensional knapsack (Eq. 4), summing the demand share at
// *every* order of every requested block. Used by the ablation scheduler that is
// block-aware but not best-alpha-aware.
double AreaEfficiency(const Task& task, const CapacitySnapshot& snapshot);

// DPack's metric (Eq. 6): demand shares counted only at each block's best alpha.
// `best_alpha` maps BlockId -> order index. Returns 0 when a requested block's best order
// has zero capacity while the task demands budget there.
double DpackEfficiency(const Task& task, const CapacitySnapshot& snapshot,
                       std::span<const size_t> best_alpha);

// COMPUTE_BESTALPHA (Alg. 1): for every block, solves one single-block knapsack per order
// over the pending tasks requesting that block (profit w_i, demand d_i(alpha), capacity
// c_{j alpha}) and returns the order index maximizing the (approximate) attainable weight
// w-hat-max. Blocks requested by no task get their largest-capacity order.
// `eta` is DPack's approximation parameter; the subproblems are solved to (2/3) eta.
std::vector<size_t> ComputeBestAlphas(std::span<const Task> tasks,
                                      const CapacitySnapshot& snapshot, double eta);

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
// attainable weight against `available`, over the orders with capacity > 0. It is exact when
// the requesters' weights are uniform: max cardinality, by SmallestDemands::Count on each
// column, which is O(taken) while the column's held smallest demands settle it, one pass over
// the column when fewer than 8 fit, and O(n + m log n) for m taken otherwise. Otherwise it is
// the (2/3) eta FPTAS, fed the requesters in column order. Returns the largest-capacity order
// when there are no requesters and order 0 when every order is depleted. Aborts if `orders`
// misses an order with available capacity.
size_t BestAlphaForBlock(const RequesterColumns& requesters, const RdpCurve& available,
                         double eta);

// The same subproblem with `requesters` indexing into `tasks` the pending tasks requesting
// the block, in batch order: gathers their weights and demands at the usable orders into
// columns (with their summaries) and calls the form above. ComputeBestAlphas and the service
// workers call this form, and the incremental engine keeps the columns as state, so all of
// their best alphas come from one core and are identical by construction.
size_t BestAlphaForBlock(std::span<const Task> tasks, std::span<const size_t> requesters,
                         const RdpCurve& available, double eta);

}  // namespace dpack

#endif  // SRC_CORE_EFFICIENCY_H_
