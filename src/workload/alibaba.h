// Alibaba-DP: the paper's macrobenchmark derived from the Alibaba 2022 GPU cluster trace
// (§6.3), reproduced here as a seeded synthetic generator (see src/README.md, "Substitutions
// and deviations").
//
// Mapping (as in the paper):
//   machine type (CPU/GPU)   -> mechanism family: CPU tasks draw from {Laplace, Gaussian,
//                               Subsampled Laplace}; GPU tasks from {composition of
//                               Subsampled Gaussians, composition of Gaussians};
//   memory GB-hours          -> privacy demand: the normalized eps_min follows a heavy-tailed
//                               (Pareto) distribution truncated to [0.001, 1];
//   network bytes read       -> number of requested blocks: heavy-tailed, truncated to
//                               [1, 100]; tasks request the most recent blocks;
//   weight                   -> 1 for all tasks.
// Arrivals are uniform over the trace window (one block arrives per time unit), and no task
// times out. The mapping's constants are fixed in alibaba.cc; only the task count, the
// window and the seed are configurable.

#ifndef SRC_WORKLOAD_ALIBABA_H_
#define SRC_WORKLOAD_ALIBABA_H_

#include <cstdint>
#include <vector>

#include "src/core/task.h"
#include "src/workload/curve_pool.h"

namespace dpack {

struct AlibabaConfig {
  size_t num_tasks = 60'000;
  // Arrival window in virtual time (block inter-arrival units). Tasks arrive uniformly over
  // [0, arrival_span).
  double arrival_span = 90.0;
  uint64_t seed = 1;
};

// Generates Alibaba-DP tasks against `pool`'s grid and block budget. The pool is only used
// for eps_min normalization; mechanisms are instantiated fresh per task. Tasks carry
// `num_recent_blocks` (resolved at submission) and arrival times; ids are 0..n-1.
std::vector<Task> GenerateAlibabaDp(const CurvePool& pool, const AlibabaConfig& config);

}  // namespace dpack

#endif  // SRC_WORKLOAD_ALIBABA_H_
