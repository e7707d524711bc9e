// Descriptive statistics of a generated workload, used to verify that synthetic generators
// reproduce the marginals the paper reports (block-request skew, best-alpha distribution,
// demand heterogeneity). The generators stand in for the paper's traces; see src/README.md,
// "Substitutions and deviations".

#ifndef SRC_WORKLOAD_WORKLOAD_STATS_H_
#define SRC_WORKLOAD_WORKLOAD_STATS_H_

#include <cstddef>
#include <span>
#include <string>
#include <vector>

#include "src/common/stats.h"
#include "src/core/task.h"
#include "src/rdp/rdp_curve.h"

namespace dpack {

struct WorkloadStats {
  size_t num_tasks = 0;
  RunningStat blocks_per_task;       // Resolved blocks or num_recent_blocks.
  RunningStat eps_min;               // Normalized min demand share vs `capacity`.
  std::vector<size_t> best_alpha_counts;  // Per grid-order counts of tasks' best alpha.
  double FractionRequestingAtMost(size_t k) const;  // Fraction with <= k blocks.
  std::vector<size_t> block_count_histogram;        // Index = #blocks (0 unused).

  std::string Summary(const AlphaGridPtr& grid) const;
};

// Computes stats against a reference per-block capacity curve (best alpha = argmin d/c over
// usable orders).
WorkloadStats ComputeWorkloadStats(std::span<const Task> tasks, const RdpCurve& capacity);

}  // namespace dpack

#endif  // SRC_WORKLOAD_WORKLOAD_STATS_H_
