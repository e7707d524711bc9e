// Scenario workload subsystem: a seeded, declarative generator of diverse online workloads
// (ISSUE 5). The paper evaluates on two heterogeneity knobs plus two traces; the scenario
// registry opens the workload *space*: every axis the online system reacts to — task
// arrival process, block arrival pattern, mechanism mix over the 620-curve pool, demand and
// weight distributions, block-selection policy, and timeout regime — is a composable knob,
// and every (spec, seed) pair generates a bit-reproducible stream. Tests, benches, and
// examples address the same workloads through the registry by name, so the engine-matrix
// differential harness (tests/integration/scenario_matrix_test.cc) proves byte-identical
// grants for every engine on every registered scenario, and the fuzzer
// (tests/integration/scenario_fuzz_test.cc) sweeps randomized specs for global invariants.

#ifndef SRC_WORKLOAD_SCENARIO_H_
#define SRC_WORKLOAD_SCENARIO_H_

#include <cstdint>
#include <string>
#include <vector>

#include "src/core/task.h"
#include "src/sim/sim_driver.h"
#include "src/workload/curve_pool.h"

namespace dpack {

// Task arrival process over [0, task_span). Stochastic processes are sampled by Lewis
// thinning against the process's peak rate, so every process is exact and reproducible.
enum class ArrivalProcess {
  kFixedRate,    // Deterministic arrivals every 1 / task_rate.
  kPoisson,      // Homogeneous Poisson at task_rate.
  kBurstyOnOff,  // Alternating on/off phases: task_rate on, task_rate * burst_floor off.
  kDiurnalRamp,  // Sinusoidal rate: task_rate * (1 + diurnal_amplitude * sin(2 pi t / P)).
};

// Block arrival pattern over the block stream.
enum class BlockArrivalPattern {
  kFixedInterval,   // One block every block_interval (the paper's online setting).
  kBatchedCohorts,  // cohort_size blocks arrive together, cohorts at the same mean rate.
  kJittered,        // Fixed interval plus uniform jitter of +/- jitter_fraction * interval.
};

// How each task's RDP curve is drawn from the 620-curve pool.
enum class MechanismMix {
  kGaussianBuckets,  // Truncated discrete Gaussian over best-alpha buckets (§6.2's knob 2).
  kUniformPool,      // Uniform over every pooled curve, ignoring buckets.
  kSkewedBestAlpha,  // Zipf over bucket rank: low-alpha buckets dominate the population.
};

// Distribution of the per-task eps_min target (normalized demand at the best alpha).
enum class DemandDistribution {
  kFixedEpsMin,        // Every task demands eps_min.
  kUniformEpsMin,      // Uniform in [eps_min_lo, eps_min_hi].
  kZipfEpsMin,         // Zipf over a log-spaced ladder of zipf_levels values in [lo, hi].
  kParetoEpsMin,       // Pareto(eps_min_lo, pareto_shape) truncated to [lo, hi].
  kCapacityFraction,   // Every task demands capacity / capacity_divisor at *every* order —
                       // the one demand shape under which capacity_divisor grants exhaust a
                       // block at every usable order simultaneously (the admission slack
                       // absorbs the summation round-off), driving block exhaustion.
};

enum class WeightDistribution {
  kUnitWeight,    // All weights 1 (max-cardinality objective).
  kUniformWeight, // Uniform in [weight_lo, weight_hi] (drives the FPTAS best-alpha path).
  kParetoWeight,  // Pareto(weight_lo, weight_pareto_shape) truncated to [lo, hi].
};

// How each task picks its requested blocks.
enum class BlockSelectionPolicy {
  kMostRecentK,  // num_recent_blocks = k, resolved at submission (the paper's convention).
  kUniformList,  // Explicit list: k distinct blocks uniform over those arrived by now.
  kHotSpotList,  // Explicit list skewed toward the hotspot_blocks earliest blocks.
};

enum class TimeoutRegime {
  kNoTimeout,     // Tasks wait forever.
  kFixedTimeout,  // Every task evicts after `timeout` time units in the queue.
  kMixedTimeout,  // timeout_fraction of tasks draw a timeout around `timeout`; rest wait.
};

// A declarative scenario: one value per knob plus the simulation parameters the scenario
// pins. Same spec + same seed => byte-identical task and block streams (pinned by
// tests/workload/scenario_test.cc).
struct ScenarioSpec {
  std::string name = "custom";
  uint64_t seed = 1;

  // Block stream.
  BlockArrivalPattern block_pattern = BlockArrivalPattern::kFixedInterval;
  size_t num_blocks = 10;
  double block_interval = 1.0;  // Mean inter-arrival; patterns reshape, not rescale, it.
  size_t cohort_size = 3;       // kBatchedCohorts.
  double jitter_fraction = 0.4; // kJittered, in (0, 1): jitter in +/- fraction * interval.

  // Task arrival process.
  ArrivalProcess arrival = ArrivalProcess::kFixedRate;
  double task_span = 15.0;  // Tasks arrive in [0, task_span).
  double task_rate = 4.0;   // Peak (on-phase / deterministic) rate, tasks per time unit.
  double burst_on = 2.0;    // kBurstyOnOff phase lengths.
  double burst_off = 3.0;
  double burst_floor = 0.0;       // Off-phase rate as a fraction of task_rate, in [0, 1].
  double diurnal_period = 8.0;    // kDiurnalRamp.
  double diurnal_amplitude = 0.9; // In [0, 1].

  // Mechanism mix.
  MechanismMix mix = MechanismMix::kGaussianBuckets;
  double center_alpha = 5.0;   // kGaussianBuckets center (the paper's alpha = 5 bucket).
  double sigma_alpha = 2.0;    // kGaussianBuckets bucket-index stddev.
  double best_alpha_skew = 2.0; // kSkewedBestAlpha Zipf exponent (> 0).

  // Demand distribution.
  DemandDistribution demand = DemandDistribution::kFixedEpsMin;
  double eps_min = 0.1;
  double eps_min_lo = 0.02;
  double eps_min_hi = 0.4;
  double zipf_exponent = 1.2;
  size_t zipf_levels = 8;
  double pareto_shape = 0.8;
  size_t capacity_divisor = 8;  // kCapacityFraction: grants needed to exhaust one block.

  // Weights.
  WeightDistribution weights = WeightDistribution::kUnitWeight;
  double weight_lo = 0.5;
  double weight_hi = 8.0;
  double weight_pareto_shape = 1.1;

  // Block selection.
  BlockSelectionPolicy selection = BlockSelectionPolicy::kMostRecentK;
  double mu_blocks = 3.0;    // Requested-block count: discrete Gaussian ...
  double sigma_blocks = 1.5; // ... clamped to [1, min(max_blocks_per_task, num_blocks)].
  size_t max_blocks_per_task = 6;
  double hotspot_fraction = 0.7; // kHotSpotList: chance each pick targets a hot block.
  size_t hotspot_blocks = 2;     // Number of hot blocks (the earliest arrivals).

  // Timeouts.
  TimeoutRegime timeouts = TimeoutRegime::kNoTimeout;
  double timeout = 5.0;          // Virtual time units in the queue before eviction.
  double timeout_fraction = 0.5; // kMixedTimeout share of tasks with a finite timeout.

  // Simulation parameters the scenario pins (copied into ScenarioWorkload::sim).
  double eps_g = 10.0;
  double delta_g = 1e-7;
  double period = 1.0;
  int64_t unlock_steps = 8;
  double drain_margin = 1.0;
  double horizon_override = 0.0;
};

// A generated workload plus the SimConfig that drives it: pass `tasks` and `sim` straight
// to RunOnlineSimulation / ResumeOnlineSimulation. `sim.block_arrival_times` carries the
// generated block stream; explicit-block-list tasks reference only blocks that have
// arrived by their arrival instant (block events fire before task events at equal times).
struct ScenarioWorkload {
  std::vector<Task> tasks;  // Arrival-ordered, ids 0..n-1.
  SimConfig sim;
};

// Generates the workload for `spec` against `pool` (which fixes the grid and the reference
// block budget the demand curves are normalized by). Deterministic in (spec, seed).
ScenarioWorkload GenerateScenario(const CurvePool& pool, const ScenarioSpec& spec);

// --- Registry ------------------------------------------------------------------------------
//
// Named scenarios covering distinct stress axes (catalogued in src/README.md). Tests sweep
// the registry so every new scenario is automatically proven across the engine matrix.

// Registered scenario names, in a fixed order.
std::vector<std::string> ScenarioRegistryNames();

// The spec registered under `name`, with its seed replaced by `seed`. Aborts (DPACK_CHECK)
// on an unknown name.
ScenarioSpec ScenarioByName(const std::string& name, uint64_t seed = 1);

}  // namespace dpack

#endif  // SRC_WORKLOAD_SCENARIO_H_
