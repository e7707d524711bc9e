#include "src/workload/scenario.h"

#include <algorithm>
#include <cmath>
#include <limits>

#include "src/common/check.h"
#include "src/common/distributions.h"
#include "src/common/rng.h"

namespace dpack {

namespace {

constexpr double kPi = 3.14159265358979323846;

// The smallest task weight: the lower end of kUniformWeight's range and kParetoWeight's
// Pareto scale.
constexpr double kMinWeight = 0.5;

// Sub-stream ids for Rng::Fork: each generation axis draws from its own deterministic
// stream, so changing one knob never perturbs the draws of another.
enum : uint64_t { kBlockStream = 1, kArrivalStream = 2, kTaskStream = 3 };

void ValidateSpec(const ScenarioSpec& spec) {
  DPACK_CHECK_MSG(spec.num_blocks > 0, "scenario needs at least one block");
  DPACK_CHECK(spec.block_interval > 0.0);
  DPACK_CHECK(spec.cohort_size > 0);
  DPACK_CHECK(spec.jitter_fraction >= 0.0 && spec.jitter_fraction < 1.0);
  DPACK_CHECK(spec.task_span > 0.0);
  DPACK_CHECK(spec.task_rate > 0.0);
  DPACK_CHECK(spec.burst_on > 0.0 && spec.burst_off >= 0.0);
  DPACK_CHECK(spec.burst_floor >= 0.0 && spec.burst_floor <= 1.0);
  DPACK_CHECK(spec.diurnal_period > 0.0);
  DPACK_CHECK(spec.diurnal_amplitude >= 0.0 && spec.diurnal_amplitude <= 1.0);
  DPACK_CHECK(spec.sigma_alpha >= 0.0);
  DPACK_CHECK(spec.best_alpha_skew > 0.0);
  DPACK_CHECK(spec.eps_min > 0.0);
  DPACK_CHECK(spec.eps_min_lo > 0.0 && spec.eps_min_lo <= spec.eps_min_hi);
  DPACK_CHECK(spec.zipf_levels >= 1);
  DPACK_CHECK(spec.zipf_exponent > 0.0);
  DPACK_CHECK(spec.pareto_shape > 0.0);
  DPACK_CHECK(spec.capacity_divisor >= 1);
  DPACK_CHECK(spec.weight_hi >= kMinWeight);
  DPACK_CHECK(spec.weight_pareto_shape > 0.0);
  DPACK_CHECK(spec.mu_blocks > 0.0);
  DPACK_CHECK(spec.sigma_blocks >= 0.0);
  DPACK_CHECK(spec.max_blocks_per_task >= 1);
  DPACK_CHECK(spec.hotspot_fraction >= 0.0 && spec.hotspot_fraction <= 1.0);
  DPACK_CHECK(spec.hotspot_blocks >= 1);
  DPACK_CHECK(spec.timeout > 0.0);
  DPACK_CHECK(spec.timeout_fraction >= 0.0 && spec.timeout_fraction <= 1.0);
  DPACK_CHECK(spec.eps_g > 0.0);
  DPACK_CHECK(spec.delta_g > 0.0 && spec.delta_g < 1.0);
  DPACK_CHECK(spec.period > 0.0);
  DPACK_CHECK(spec.unlock_steps >= 1);
}

std::vector<double> GenerateBlockArrivals(const ScenarioSpec& spec, Rng rng) {
  std::vector<double> times;
  times.reserve(spec.num_blocks);
  switch (spec.block_pattern) {
    case BlockArrivalPattern::kFixedInterval:
      for (size_t b = 0; b < spec.num_blocks; ++b) {
        times.push_back(static_cast<double>(b) * spec.block_interval);
      }
      break;
    case BlockArrivalPattern::kBatchedCohorts: {
      // Whole cohorts arrive together; cohort instants keep the mean block rate, so the
      // same total capacity lands in coarser, later steps.
      double cohort_gap = static_cast<double>(spec.cohort_size) * spec.block_interval;
      for (size_t b = 0; b < spec.num_blocks; ++b) {
        times.push_back(static_cast<double>(b / spec.cohort_size) * cohort_gap);
      }
      break;
    }
    case BlockArrivalPattern::kJittered: {
      double j = spec.jitter_fraction * spec.block_interval;
      for (size_t b = 0; b < spec.num_blocks; ++b) {
        double t = static_cast<double>(b) * spec.block_interval;
        if (j > 0.0) {
          t = std::max(0.0, t + rng.Uniform(-j, j));
        }
        times.push_back(t);
      }
      std::sort(times.begin(), times.end());
      break;
    }
  }
  return times;
}

// Instantaneous task arrival rate at virtual time t. The peak over all t is spec.task_rate
// for every process except the diurnal ramp, whose peak is task_rate * (1 + amplitude).
double ArrivalRateAt(const ScenarioSpec& spec, double t) {
  switch (spec.arrival) {
    case ArrivalProcess::kFixedRate:
    case ArrivalProcess::kPoisson:
      return spec.task_rate;
    case ArrivalProcess::kBurstyOnOff: {
      double phase = std::fmod(t, spec.burst_on + spec.burst_off);
      return phase < spec.burst_on ? spec.task_rate : spec.task_rate * spec.burst_floor;
    }
    case ArrivalProcess::kDiurnalRamp:
      return spec.task_rate *
             (1.0 + spec.diurnal_amplitude * std::sin(2.0 * kPi * t / spec.diurnal_period));
  }
  return spec.task_rate;
}

std::vector<double> GenerateTaskArrivals(const ScenarioSpec& spec, Rng rng) {
  std::vector<double> arrivals;
  if (spec.arrival == ArrivalProcess::kFixedRate) {
    for (double t = 0.0; t < spec.task_span; t += 1.0 / spec.task_rate) {
      arrivals.push_back(t);
    }
    return arrivals;
  }
  // Lewis thinning: candidates from a homogeneous Poisson at the peak rate, each accepted
  // with probability rate(t) / peak. Exact for any bounded rate function, and every draw
  // comes from the explicit stream, so the schedule is reproducible bit-for-bit.
  double peak = spec.task_rate;
  if (spec.arrival == ArrivalProcess::kDiurnalRamp) {
    peak = spec.task_rate * (1.0 + spec.diurnal_amplitude);
  }
  double t = 0.0;
  while (true) {
    t += rng.Exponential(peak);
    if (t >= spec.task_span) {
      break;
    }
    if (spec.arrival == ArrivalProcess::kPoisson ||
        rng.Uniform() * peak < ArrivalRateAt(spec, t)) {
      arrivals.push_back(t);
    }
  }
  return arrivals;
}

// Zipf masses 1 / rank^exponent over `size` ranks.
std::vector<double> ZipfWeights(size_t size, double exponent) {
  std::vector<double> weights(size);
  for (size_t k = 0; k < size; ++k) {
    weights[k] = 1.0 / std::pow(static_cast<double>(k + 1), exponent);
  }
  return weights;
}

// Per-generation sampling tables: pure functions of (pool, spec), hoisted out of the
// per-task loop. Draw sequences are unchanged (WeightedIndex consumes one uniform).
struct SamplingTables {
  size_t center_bucket = 0;          // kGaussianBuckets.
  std::vector<double> bucket_zipf;   // kSkewedBestAlpha: Zipf over bucket rank.
  std::vector<double> demand_zipf;   // kZipfEpsMin: Zipf over the eps ladder rungs.
};

SamplingTables BuildSamplingTables(const CurvePool& pool, const ScenarioSpec& spec) {
  SamplingTables tables;
  if (spec.mix == MechanismMix::kGaussianBuckets) {
    tables.center_bucket = pool.BucketNearestAlpha(spec.center_alpha);
  }
  if (spec.mix == MechanismMix::kSkewedBestAlpha) {
    tables.bucket_zipf = ZipfWeights(pool.bucket_count(), spec.best_alpha_skew);
  }
  if (spec.demand == DemandDistribution::kZipfEpsMin) {
    tables.demand_zipf = ZipfWeights(spec.zipf_levels, spec.zipf_exponent);
  }
  return tables;
}

size_t SampleCurveIndex(const CurvePool& pool, const ScenarioSpec& spec,
                        const SamplingTables& tables, Rng& rng) {
  switch (spec.mix) {
    case MechanismMix::kGaussianBuckets: {
      size_t bucket = TruncatedDiscreteGaussianIndex(
          rng, pool.bucket_count(), static_cast<double>(tables.center_bucket),
          spec.sigma_alpha);
      const std::vector<size_t>& candidates = pool.bucket(bucket);
      return candidates[static_cast<size_t>(
          rng.UniformInt(0, static_cast<int64_t>(candidates.size()) - 1))];
    }
    case MechanismMix::kUniformPool:
      return static_cast<size_t>(
          rng.UniformInt(0, static_cast<int64_t>(pool.size()) - 1));
    case MechanismMix::kSkewedBestAlpha: {
      // Zipf over bucket rank: the lowest-alpha buckets dominate, skewing the best-alpha
      // population the way a fleet of low-order mechanisms would.
      size_t bucket = rng.WeightedIndex(tables.bucket_zipf);
      const std::vector<size_t>& candidates = pool.bucket(bucket);
      return candidates[static_cast<size_t>(
          rng.UniformInt(0, static_cast<int64_t>(candidates.size()) - 1))];
    }
  }
  return 0;
}

double SampleEpsMin(const ScenarioSpec& spec, const SamplingTables& tables, Rng& rng) {
  switch (spec.demand) {
    case DemandDistribution::kFixedEpsMin:
      return spec.eps_min;
    case DemandDistribution::kUniformEpsMin:
      return spec.eps_min_lo == spec.eps_min_hi
                 ? spec.eps_min_lo
                 : rng.Uniform(spec.eps_min_lo, spec.eps_min_hi);
    case DemandDistribution::kZipfEpsMin: {
      // Log-spaced ladder from lo to hi; Zipf mass on the rungs, smallest demand first.
      size_t level = rng.WeightedIndex(tables.demand_zipf);
      if (spec.zipf_levels == 1) {
        return spec.eps_min_lo;
      }
      double frac = static_cast<double>(level) / static_cast<double>(spec.zipf_levels - 1);
      return spec.eps_min_lo * std::pow(spec.eps_min_hi / spec.eps_min_lo, frac);
    }
    case DemandDistribution::kParetoEpsMin:
      return std::min(spec.eps_min_hi, rng.Pareto(spec.eps_min_lo, spec.pareto_shape));
    case DemandDistribution::kCapacityFraction:
      break;  // Demands are built in GenerateScenario; this sampler is never consulted.
  }
  return spec.eps_min;
}

double SampleWeight(const ScenarioSpec& spec, Rng& rng) {
  switch (spec.weights) {
    case WeightDistribution::kUnitWeight:
      return 1.0;
    case WeightDistribution::kUniformWeight:
      return spec.weight_hi == kMinWeight ? kMinWeight : rng.Uniform(kMinWeight, spec.weight_hi);
    case WeightDistribution::kParetoWeight:
      return std::min(spec.weight_hi, rng.Pareto(kMinWeight, spec.weight_pareto_shape));
  }
  return 1.0;
}

// k distinct block ids from [0, arrived) under per-id weights, in sorted order (the
// canonical order every generator emits). Weights are consumed destructively.
std::vector<BlockId> WeightedDistinctBlocks(Rng& rng, std::vector<double> weights, size_t k) {
  std::vector<BlockId> picked;
  picked.reserve(k);
  for (size_t i = 0; i < k; ++i) {
    size_t idx = rng.WeightedIndex(weights);
    picked.push_back(static_cast<BlockId>(idx));
    weights[idx] = 0.0;
  }
  std::sort(picked.begin(), picked.end());
  return picked;
}

void AssignBlocks(Task& task, const ScenarioSpec& spec,
                  const std::vector<double>& block_times, Rng& rng) {
  size_t max_k = std::min<size_t>(spec.max_blocks_per_task, spec.num_blocks);
  size_t k = static_cast<size_t>(DiscreteGaussian(rng, spec.mu_blocks, spec.sigma_blocks, 1,
                                                  static_cast<int64_t>(max_k)));
  // Blocks visible to this task: arrivals at or before its instant (blocks fire before
  // tasks at equal instants, see WalkSchedule).
  size_t arrived = static_cast<size_t>(
      std::upper_bound(block_times.begin(), block_times.end(), task.arrival_time) -
      block_times.begin());
  if (spec.selection == BlockSelectionPolicy::kMostRecentK || arrived == 0) {
    // The paper's convention — or the explicit policies' fallback for tasks arriving
    // before any block exists (their list is resolved most-recent at the next cycle).
    task.num_recent_blocks = k;
    return;
  }
  size_t kk = std::min(k, arrived);
  if (spec.selection == BlockSelectionPolicy::kUniformList) {
    for (size_t idx : rng.SampleWithoutReplacement(arrived, kk)) {
      task.blocks.push_back(static_cast<BlockId>(idx));
    }
    return;
  }
  // Hot-spot skew: each pick lands on one of the `hot` earliest blocks with probability
  // hotspot_fraction, spreading the rest uniformly — per-id weights chosen so a single
  // draw hits the hot set with exactly that probability.
  size_t hot = std::min<size_t>(spec.hotspot_blocks, arrived);
  std::vector<double> weights(arrived, 1.0);
  if (hot < arrived && spec.hotspot_fraction > 0.0) {
    double f = std::min(spec.hotspot_fraction, 1.0 - 1e-9);
    double hot_weight = f * static_cast<double>(arrived - hot) /
                        ((1.0 - f) * static_cast<double>(hot));
    for (size_t h = 0; h < hot; ++h) {
      weights[h] = hot_weight;
    }
  }
  task.blocks = WeightedDistinctBlocks(rng, std::move(weights), kk);
}

double SampleTimeout(const ScenarioSpec& spec, Rng& rng) {
  switch (spec.timeouts) {
    case TimeoutRegime::kNoTimeout:
      return std::numeric_limits<double>::infinity();
    case TimeoutRegime::kFixedTimeout:
      return spec.timeout;
    case TimeoutRegime::kMixedTimeout:
      return rng.Bernoulli(spec.timeout_fraction)
                 ? rng.Uniform(0.5 * spec.timeout, 1.5 * spec.timeout)
                 : std::numeric_limits<double>::infinity();
  }
  return std::numeric_limits<double>::infinity();
}

}  // namespace

ScenarioWorkload GenerateScenario(const CurvePool& pool, const ScenarioSpec& spec) {
  ValidateSpec(spec);
  Rng root(spec.seed);
  std::vector<double> block_times = GenerateBlockArrivals(spec, root.Fork(kBlockStream));
  std::vector<double> task_times = GenerateTaskArrivals(spec, root.Fork(kArrivalStream));
  Rng task_rng = root.Fork(kTaskStream);
  SamplingTables tables = BuildSamplingTables(pool, spec);

  // kCapacityFraction demands bypass the mechanism pool: every task charges an exact
  // 1/capacity_divisor share of the block capacity curve at every order.
  std::vector<double> fraction_eps;
  if (spec.demand == DemandDistribution::kCapacityFraction) {
    fraction_eps = BlockCapacityCurve(pool.grid(), spec.eps_g, spec.delta_g).epsilons();
    for (double& eps : fraction_eps) {
      eps /= static_cast<double>(spec.capacity_divisor);
    }
  }

  ScenarioWorkload workload;
  workload.tasks.reserve(task_times.size());
  for (size_t i = 0; i < task_times.size(); ++i) {
    RdpCurve demand = [&] {
      if (spec.demand == DemandDistribution::kCapacityFraction) {
        return RdpCurve(pool.grid(), fraction_eps);
      }
      size_t curve = SampleCurveIndex(pool, spec, tables, task_rng);
      double eps = SampleEpsMin(spec, tables, task_rng);
      return pool.ShiftedToEpsMin(curve, eps);
    }();
    Task task(static_cast<TaskId>(i), SampleWeight(spec, task_rng), std::move(demand));
    task.arrival_time = task_times[i];
    task.timeout = SampleTimeout(spec, task_rng);
    AssignBlocks(task, spec, block_times, task_rng);
    workload.tasks.push_back(std::move(task));
  }

  workload.sim.grid = pool.grid();
  workload.sim.eps_g = spec.eps_g;
  workload.sim.delta_g = spec.delta_g;
  workload.sim.num_blocks = block_times.size();
  workload.sim.block_interval = spec.block_interval;
  workload.sim.block_arrival_times = std::move(block_times);
  workload.sim.period = spec.period;
  workload.sim.unlock_steps = spec.unlock_steps;
  workload.sim.drain_margin = spec.drain_margin;
  workload.sim.horizon_override = spec.horizon_override;
  return workload;
}

// --- Registry ------------------------------------------------------------------------------

namespace {

// Each registered scenario stresses one distinct axis of the online system; the engine
// matrix and fuzz suites sweep the registry, so adding an entry here automatically extends
// every differential proof to the new workload shape. Catalogued in src/README.md.

ScenarioSpec SteadyPoisson() {
  ScenarioSpec spec;
  spec.name = "steady_poisson";
  spec.arrival = ArrivalProcess::kPoisson;
  spec.task_span = 14.0;
  spec.task_rate = 4.0;
  spec.num_blocks = 10;
  spec.mix = MechanismMix::kUniformPool;
  spec.demand = DemandDistribution::kFixedEpsMin;
  spec.eps_min = 0.08;
  spec.selection = BlockSelectionPolicy::kMostRecentK;
  spec.mu_blocks = 3.0;
  spec.sigma_blocks = 1.5;
  spec.unlock_steps = 8;
  return spec;
}

ScenarioSpec BurstyHotspot() {
  ScenarioSpec spec;
  spec.name = "bursty_hotspot";
  spec.arrival = ArrivalProcess::kBurstyOnOff;
  spec.task_span = 15.0;
  spec.task_rate = 6.0;
  spec.burst_on = 2.0;
  spec.burst_off = 3.0;
  spec.burst_floor = 0.1;
  spec.num_blocks = 10;
  spec.mix = MechanismMix::kGaussianBuckets;
  spec.sigma_alpha = 3.0;
  spec.demand = DemandDistribution::kUniformEpsMin;
  spec.eps_min_lo = 0.03;
  spec.eps_min_hi = 0.3;
  spec.weights = WeightDistribution::kParetoWeight;
  spec.selection = BlockSelectionPolicy::kHotSpotList;
  spec.hotspot_fraction = 0.75;
  spec.hotspot_blocks = 2;
  spec.mu_blocks = 3.0;
  spec.sigma_blocks = 1.0;
  spec.timeouts = TimeoutRegime::kMixedTimeout;
  spec.timeout = 6.0;
  spec.timeout_fraction = 0.4;
  spec.unlock_steps = 8;
  return spec;
}

ScenarioSpec DiurnalZipf() {
  ScenarioSpec spec;
  spec.name = "diurnal_zipf";
  spec.arrival = ArrivalProcess::kDiurnalRamp;
  spec.task_span = 16.0;
  spec.task_rate = 5.0;
  spec.diurnal_period = 8.0;
  spec.diurnal_amplitude = 0.9;
  spec.num_blocks = 12;
  spec.mix = MechanismMix::kGaussianBuckets;
  spec.sigma_alpha = 2.0;
  spec.demand = DemandDistribution::kZipfEpsMin;
  spec.eps_min_lo = 0.02;
  spec.eps_min_hi = 0.5;
  spec.zipf_exponent = 1.3;
  spec.selection = BlockSelectionPolicy::kMostRecentK;
  spec.mu_blocks = 4.0;
  spec.sigma_blocks = 2.0;
  spec.timeouts = TimeoutRegime::kFixedTimeout;
  spec.timeout = 6.0;
  spec.unlock_steps = 8;
  return spec;
}

ScenarioSpec CohortSkew() {
  ScenarioSpec spec;
  spec.name = "cohort_skew";
  spec.arrival = ArrivalProcess::kFixedRate;
  spec.task_span = 12.0;
  spec.task_rate = 4.0;
  spec.block_pattern = BlockArrivalPattern::kBatchedCohorts;
  spec.num_blocks = 12;
  spec.cohort_size = 4;
  spec.mix = MechanismMix::kSkewedBestAlpha;
  spec.best_alpha_skew = 2.5;
  spec.demand = DemandDistribution::kFixedEpsMin;
  spec.eps_min = 0.12;
  spec.weights = WeightDistribution::kUniformWeight;
  spec.weight_hi = 6.0;
  spec.selection = BlockSelectionPolicy::kUniformList;
  spec.mu_blocks = 3.0;
  spec.sigma_blocks = 1.0;
  spec.unlock_steps = 6;
  return spec;
}

ScenarioSpec JitteredHeavy() {
  ScenarioSpec spec;
  spec.name = "jittered_heavy";
  spec.arrival = ArrivalProcess::kPoisson;
  spec.task_span = 14.0;
  spec.task_rate = 4.0;
  spec.block_pattern = BlockArrivalPattern::kJittered;
  spec.num_blocks = 10;
  spec.jitter_fraction = 0.45;
  spec.mix = MechanismMix::kUniformPool;
  spec.demand = DemandDistribution::kParetoEpsMin;
  spec.eps_min_lo = 0.02;
  spec.eps_min_hi = 0.6;
  spec.pareto_shape = 0.7;
  spec.weights = WeightDistribution::kParetoWeight;
  spec.selection = BlockSelectionPolicy::kUniformList;
  spec.mu_blocks = 2.0;
  spec.sigma_blocks = 1.0;
  spec.timeouts = TimeoutRegime::kMixedTimeout;
  spec.timeout = 5.0;
  spec.timeout_fraction = 0.4;
  spec.unlock_steps = 8;
  return spec;
}

ScenarioSpec TrickleDrain() {
  ScenarioSpec spec;
  spec.name = "trickle_drain";
  spec.arrival = ArrivalProcess::kFixedRate;
  spec.task_span = 12.0;
  spec.task_rate = 1.5;
  spec.num_blocks = 8;
  spec.mix = MechanismMix::kGaussianBuckets;
  spec.sigma_alpha = 1.0;
  spec.demand = DemandDistribution::kFixedEpsMin;
  spec.eps_min = 0.03;
  spec.selection = BlockSelectionPolicy::kMostRecentK;
  spec.mu_blocks = 2.0;
  spec.sigma_blocks = 0.0;
  spec.unlock_steps = 4;
  return spec;
}

ScenarioSpec RetirementChurn() {
  // Block exhaustion under load: capacity-fraction demands make every block exhaustible in
  // exactly capacity_divisor grants, most-recent-k selection concentrates commits on the
  // newest blocks, and fast unlocking (unlock_steps = 2) leaves blocks fully unlocked and
  // exhausted while the run is still granting, including across the matrix harness's
  // kill+resume trials. The e2e churn stream selects this scenario by name.
  ScenarioSpec spec;
  spec.name = "retirement_churn";
  spec.arrival = ArrivalProcess::kPoisson;
  spec.task_span = 14.0;
  spec.task_rate = 8.0;
  spec.num_blocks = 24;
  spec.block_interval = 0.5;
  spec.mix = MechanismMix::kUniformPool;  // Ignored by kCapacityFraction; kept canonical.
  spec.demand = DemandDistribution::kCapacityFraction;
  spec.capacity_divisor = 6;
  spec.selection = BlockSelectionPolicy::kMostRecentK;
  spec.mu_blocks = 2.0;
  spec.sigma_blocks = 1.0;
  spec.timeouts = TimeoutRegime::kFixedTimeout;
  spec.timeout = 3.0;
  spec.unlock_steps = 2;
  return spec;
}

using ScenarioFactory = ScenarioSpec (*)();

struct RegistryEntry {
  const char* name;
  ScenarioFactory factory;
};

constexpr RegistryEntry kRegistry[] = {
    {"steady_poisson", &SteadyPoisson},     {"bursty_hotspot", &BurstyHotspot},
    {"diurnal_zipf", &DiurnalZipf},         {"cohort_skew", &CohortSkew},
    {"jittered_heavy", &JitteredHeavy},     {"trickle_drain", &TrickleDrain},
    {"retirement_churn", &RetirementChurn},
};

}  // namespace

std::vector<std::string> ScenarioRegistryNames() {
  std::vector<std::string> names;
  names.reserve(std::size(kRegistry));
  for (const RegistryEntry& entry : kRegistry) {
    names.push_back(entry.name);
  }
  return names;
}

ScenarioSpec ScenarioByName(const std::string& name, uint64_t seed) {
  for (const RegistryEntry& entry : kRegistry) {
    if (name == entry.name) {
      ScenarioSpec spec = entry.factory();
      spec.seed = seed;
      return spec;
    }
  }
  DPACK_CHECK_MSG(false, "unknown scenario: " << name);
  return ScenarioSpec{};
}

}  // namespace dpack
