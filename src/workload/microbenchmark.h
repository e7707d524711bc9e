// The tunable offline microbenchmark of §6.2, exposing two heterogeneity knobs:
//   sigma_blocks — stddev of the discrete-Gaussian number of requested blocks;
//   sigma_alpha  — stddev of the truncated discrete Gaussian over best-alpha buckets,
//                  centered at the alpha = 5 bucket.
// All tasks share a fixed normalized eps_min (minimum capacity share at the best alpha) and
// weight 1; requested blocks are drawn uniformly without replacement.

#ifndef SRC_WORKLOAD_MICROBENCHMARK_H_
#define SRC_WORKLOAD_MICROBENCHMARK_H_

#include <cstdint>
#include <vector>

#include "src/core/task.h"
#include "src/workload/curve_pool.h"

namespace dpack {

struct MicrobenchmarkConfig {
  size_t num_tasks = 200;
  size_t num_blocks = 30;      // Blocks in the (offline) system.
  double mu_blocks = 10.0;     // Mean requested blocks.
  double sigma_blocks = 0.0;   // Heterogeneity knob 1.
  double sigma_alpha = 0.0;    // Heterogeneity knob 2 (bucket-index stddev).
  double eps_min = 0.1;        // Normalized demand at best alpha, constant across tasks.
  uint64_t seed = 1;
};

// Generates the microbenchmark tasks against `pool` (which fixes grid and block budget).
// Task ids are 0..n-1, weights 1, arrival times 0 (offline).
std::vector<Task> GenerateMicrobenchmark(const CurvePool& pool,
                                         const MicrobenchmarkConfig& config);

}  // namespace dpack

#endif  // SRC_WORKLOAD_MICROBENCHMARK_H_
