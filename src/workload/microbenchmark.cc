#include "src/workload/microbenchmark.h"

#include <algorithm>

#include "src/common/check.h"
#include "src/common/distributions.h"
#include "src/common/rng.h"

namespace dpack {

std::vector<Task> GenerateMicrobenchmark(const CurvePool& pool,
                                         const MicrobenchmarkConfig& config) {
  DPACK_CHECK(config.num_tasks > 0);
  DPACK_CHECK(config.num_blocks > 0);
  DPACK_CHECK(config.eps_min > 0.0);
  Rng rng(config.seed);
  // Centered on the paper's alpha = 5 bucket.
  size_t center_bucket = pool.BucketNearestAlpha(5.0);

  std::vector<Task> tasks;
  tasks.reserve(config.num_tasks);
  for (size_t i = 0; i < config.num_tasks; ++i) {
    // Knob 2: best-alpha bucket from a truncated discrete Gaussian over bucket indexes.
    size_t bucket = TruncatedDiscreteGaussianIndex(rng, pool.bucket_count(),
                                                   static_cast<double>(center_bucket),
                                                   config.sigma_alpha);
    const std::vector<size_t>& candidates = pool.bucket(bucket);
    size_t curve_idx = candidates[static_cast<size_t>(
        rng.UniformInt(0, static_cast<int64_t>(candidates.size()) - 1))];
    // Vertical share-shift rescaling (§6.2): preserves the absolute share gaps between
    // orders, so small eps_min targets keep high diversity in eps(alpha).
    RdpCurve demand = pool.ShiftedToEpsMin(curve_idx, config.eps_min);

    Task task(static_cast<TaskId>(i), /*weight=*/1.0, std::move(demand));

    // Knob 1: number of requested blocks from a discrete Gaussian, blocks chosen uniformly
    // without replacement.
    int64_t k = DiscreteGaussian(rng, config.mu_blocks, config.sigma_blocks, 1,
                                 static_cast<int64_t>(config.num_blocks));
    std::vector<size_t> picked =
        rng.SampleWithoutReplacement(config.num_blocks, static_cast<size_t>(k));
    task.blocks.reserve(picked.size());
    for (size_t b : picked) {
      task.blocks.push_back(static_cast<BlockId>(b));
    }
    tasks.push_back(std::move(task));
  }
  return tasks;
}

}  // namespace dpack
