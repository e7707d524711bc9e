#include "src/workload/alibaba.h"

#include <algorithm>
#include <cmath>

#include "src/common/check.h"
#include "src/common/rng.h"

namespace dpack {

namespace {

// Trace-level CPU/GPU mix.
constexpr double kGpuFraction = 0.35;
// Heavy-tailed eps_min proxy (memory GB-hours -> privacy): Pareto(scale, shape), truncated
// to the paper's [0.001, 1].
constexpr double kEpsParetoScale = 0.01;
constexpr double kEpsParetoShape = 0.7;
constexpr double kEpsMinLo = 0.001;
constexpr double kEpsMinHi = 1.0;
// Deep-learning (GPU) tasks consume more privacy per run than statistics: their eps_min
// draw is scaled up by this factor (then re-truncated). Mirrors the memory-usage gap
// between GPU and CPU jobs in the trace.
constexpr double kGpuEpsMultiplier = 4.0;
// Heavy-tailed block-count proxy (network bytes -> blocks): Pareto(scale, shape),
// truncated to the paper's [1, 100].
constexpr double kBlocksParetoScale = 1.0;
constexpr double kBlocksParetoShape = 0.9;
constexpr size_t kMaxBlocksPerTask = 100;

// Draws a Pareto value truncated to [lo, hi] by rejection, clamping after `max_tries`.
double TruncatedPareto(Rng& rng, double scale, double shape, double lo, double hi,
                       int max_tries = 64) {
  for (int t = 0; t < max_tries; ++t) {
    double x = rng.Pareto(scale, shape);
    if (x >= lo && x <= hi) {
      return x;
    }
  }
  return std::clamp(rng.Pareto(scale, shape), lo, hi);
}

// CPU tasks: statistics / analytics / lightweight ML mechanisms.
MechanismSpec SampleCpuMechanism(Rng& rng) {
  MechanismSpec spec;
  switch (rng.UniformInt(0, 2)) {
    case 0:
      // Wide scale range: small scales have best alpha at large orders, large scales at mid
      // orders — the best-alpha heterogeneity real statistic mixes exhibit (Fig. 2).
      spec.type = MechanismType::kLaplace;
      spec.noise = std::clamp(rng.LogNormal(std::log(3.0), 0.9), 1.2, 100.0);
      break;
    case 1:
      spec.type = MechanismType::kGaussian;
      spec.noise = rng.LogNormal(std::log(4.0), 0.7);  // Sigma.
      break;
    default:
      spec.type = MechanismType::kSubsampledLaplace;
      spec.noise = std::clamp(rng.LogNormal(std::log(1.5), 0.8), 0.8, 50.0);
      spec.sampling_q = rng.LogNormal(std::log(0.05), 1.2);
      spec.sampling_q = std::clamp(spec.sampling_q, 1e-4, 0.5);
      break;
  }
  return spec;
}

// GPU tasks: deep-learning training mechanisms (DP-SGD / DP-FTRL style compositions).
MechanismSpec SampleGpuMechanism(Rng& rng) {
  MechanismSpec spec;
  if (rng.Bernoulli(0.7)) {
    spec.type = MechanismType::kComposedSubsampledGaussian;
    // DP-SGD-style parameters: moderate noise and small sampling rates keep the high-order
    // moment blow-up bounded for most tasks while preserving best-alpha heterogeneity.
    spec.noise = rng.Uniform(2.2, 4.0);
    spec.sampling_q = std::clamp(rng.LogNormal(std::log(0.004), 0.9), 1e-4, 0.02);
    spec.compositions = static_cast<size_t>(rng.LogNormal(std::log(1000.0), 0.8));
  } else {
    spec.type = MechanismType::kComposedGaussian;
    spec.noise = rng.Uniform(2.0, 12.0);
    spec.compositions = static_cast<size_t>(rng.LogNormal(std::log(200.0), 0.8));
  }
  spec.compositions = std::clamp<size_t>(spec.compositions, 10, 50'000);
  return spec;
}

}  // namespace

std::vector<Task> GenerateAlibabaDp(const CurvePool& pool, const AlibabaConfig& config) {
  DPACK_CHECK(config.num_tasks > 0);
  DPACK_CHECK(config.arrival_span > 0.0);
  Rng rng(config.seed);

  std::vector<Task> tasks;
  tasks.reserve(config.num_tasks);
  for (size_t i = 0; i < config.num_tasks; ++i) {
    bool gpu = rng.Bernoulli(kGpuFraction);
    MechanismSpec spec = gpu ? SampleGpuMechanism(rng) : SampleCpuMechanism(rng);
    RdpCurve curve = spec.BuildCurve(pool.grid());

    // Memory -> privacy proxy: rescale the curve to a heavy-tailed normalized eps_min,
    // truncated to [kEpsMinLo, kEpsMinHi] (the paper's workload truncation).
    double eps_min =
        TruncatedPareto(rng, kEpsParetoScale, kEpsParetoShape, kEpsMinLo, kEpsMinHi);
    if (gpu) {
      eps_min = std::min(eps_min * kGpuEpsMultiplier, kEpsMinHi);
    }
    double current = pool.NormalizedEpsMin(curve);
    DPACK_CHECK(current > 0.0);
    RdpCurve demand = curve.Scaled(eps_min / current);

    Task task(static_cast<TaskId>(i), /*weight=*/1.0, std::move(demand));

    // Network-bytes -> blocks proxy: heavy-tailed count of most-recent blocks, in [1, 100].
    double raw_blocks = TruncatedPareto(rng, kBlocksParetoScale, kBlocksParetoShape, 1.0,
                                        static_cast<double>(kMaxBlocksPerTask));
    task.num_recent_blocks = static_cast<size_t>(std::llround(raw_blocks));
    task.num_recent_blocks = std::clamp<size_t>(task.num_recent_blocks, 1, kMaxBlocksPerTask);

    task.arrival_time = rng.Uniform(0.0, config.arrival_span);
    tasks.push_back(std::move(task));
  }
  // Sort by arrival so downstream drivers see a chronological stream.
  std::sort(tasks.begin(), tasks.end(),
            [](const Task& a, const Task& b) { return a.arrival_time < b.arrival_time; });
  return tasks;
}

}  // namespace dpack
