// Single-dimension 0/1 knapsack solvers.
//
// DPack's COMPUTE_BESTALPHA step (Alg. 1) solves one single-block knapsack per (block, order)
// pair: maximize total profit subject to sum of demands <= capacity. The paper uses a
// (2/3) eta FPTAS (Prop. 2); we provide an exact max-cardinality fast path for uniform
// profits (BestAlphaForBlock calls its count-only form), a profit-scaling FPTAS for weighted
// instances, a density greedy (the classical 1/2-approximation), and an exact
// branch-and-bound used by tests and small instances.

#ifndef SRC_KNAPSACK_SINGLE_DIM_H_
#define SRC_KNAPSACK_SINGLE_DIM_H_

#include <array>
#include <cstddef>
#include <cstdint>
#include <span>
#include <vector>

namespace dpack {

// One candidate item: non-negative profit and demand.
struct KnapsackItem {
  double profit = 0.0;
  double demand = 0.0;
};

struct KnapsackSolution {
  double total_profit = 0.0;
  std::vector<size_t> selected;  // Indices into the input span, ascending.
};

// Exact solver for uniform-profit instances: picks the maximum number of items that fit, the
// longest feasible prefix in ascending demand order (ties by index). Items above capacity are
// dropped in one pass and only the prefix that fits is popped from a min-heap of the rest:
// O(n + m log n) for m selected, plus the O(m log m) sort of `selected`.
KnapsackSolution MaxCardinalityKnapsack(std::span<const KnapsackItem> items, double capacity);

// The same rule, count only: the number of demands MaxCardinalityKnapsack would select, with
// no selection vector. Its profit under a uniform profit w is w added that many times, bit
// for bit MaxCardinalityKnapsack's total_profit. `demands` is only read. Aborts on a negative
// or NaN demand. One pass keeps the eight smallest demands, which settle any count below 8 in
// O(n); larger counts copy the column once and cost O(n + m log n).
size_t MaxCardinalityCount(std::span<const double> demands, double capacity);

// The smallest demands of a column that changes one demand at a time, kept so that
// MaxCardinalityCount on it usually reads no more than they. The column is a multiset: the
// count does not depend on the order of its demands. Add and Drop are O(kHeld); Count is
// O(taken) while the held demands settle it, and otherwise makes one pass over the column
// (refilling them) or takes MaxCardinalityCount's heap path.
class SmallestDemands {
 public:
  static constexpr size_t kHeld = 8;

  void Add(double demand) {
    bool complete = held_ + invalid_ == size_;
    ++size_;
    if (!(demand >= 0.0)) {
      ++invalid_;
    } else if (complete ? held_ < kHeld || demand < low_[kHeld - 1]
                        : held_ > 0 && demand < low_[held_ - 1]) {
      Hold(demand);  // Every demand not held is at least the largest held one.
    }
  }
  // `demand` must be in the column.
  void Drop(double demand) {
    --size_;
    if (!(demand >= 0.0)) {
      --invalid_;
    } else if (held_ > 0 && demand <= low_[held_ - 1]) {
      Release(demand);  // Held demands are the smallest, so one of them equals `demand`.
    }
  }
  // Exactly MaxCardinalityCount(column, capacity); `column` holds, in any order, the demands
  // added and not dropped. Aborts on a negative or NaN demand, as MaxCardinalityCount does.
  size_t Count(std::span<const double> column, double capacity);

 private:
  void Hold(double demand);
  void Release(double demand);

  // low_[0, held_): the column's held_ smallest valid demands, ascending.
  std::array<double, kHeld> low_{};
  uint32_t held_ = 0;
  uint32_t size_ = 0;     // Demands in the column.
  uint32_t invalid_ = 0;  // Negative or NaN demands among them.
};

// Classical greedy by profit density with the best-single-item fix: a 1/2-approximation.
// O(n log n).
KnapsackSolution GreedyDensityKnapsack(std::span<const KnapsackItem> items, double capacity);

// Upper bound from the LP relaxation (fractional knapsack): optimum <= returned value.
double FractionalKnapsackBound(std::span<const KnapsackItem> items, double capacity);

// Profit-scaling FPTAS: returns a solution with profit >= optimum / (1 + eta).
// Runs the dynamic program over scaled profits; cost O(n^2 / eta). `max_states` caps the DP
// table size; when exceeded the solver falls back to GreedyDensityKnapsack (still 1/2-approx).
KnapsackSolution FptasKnapsack(std::span<const KnapsackItem> items, double capacity, double eta,
                               size_t max_states = 50'000'000);

// Exact branch-and-bound (fractional bound pruning). Exponential worst case; intended for
// tests and small instances (n up to a few hundred).
KnapsackSolution ExactKnapsack(std::span<const KnapsackItem> items, double capacity);

}  // namespace dpack

#endif  // SRC_KNAPSACK_SINGLE_DIM_H_
