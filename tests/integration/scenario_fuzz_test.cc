// Randomized scenario-spec fuzzer (ISSUE 5): draws scenario specs uniformly from the whole
// knob space, runs each through a randomly-shaped engine, and asserts the global invariants
// no workload may ever break:
//   - budget safety: no block's consumed budget exceeds its (eps_g, delta_g)-derived
//     capacity at every order (the Rényi filter admits on "exists alpha", so at least one
//     order must stay within capacity — and no order may be overdrawn beyond the unlocked
//     fraction's admission tolerance);
//   - conservation: granted + evicted + still-pending == submitted == generated;
//   - unlock monotonicity: a later checkpoint never shows a block less unlocked than an
//     earlier one, and fractions stay in [0, 1];
//   - engine equivalence: the engine under test grants exactly what the recompute
//     reference grants, and a mid-run kill + resume stitches back to the same trace.
//
// Every iteration logs its seed via SCOPED_TRACE; replay one seed with
//   DPACK_FUZZ_REPLAY_SEED=<seed> ./dpack_tests_integration_scenario_fuzz_test
// The CI soak is bounded by DPACK_FUZZ_ITERATIONS (default 100).

#include <gtest/gtest.h>

#include <cstdlib>
#include <memory>
#include <string>
#include <vector>

#include "src/common/rng.h"
#include "src/core/scheduler.h"
#include "src/orchestrator/checkpoint.h"
#include "src/rdp/rdp_curve.h"
#include "src/sim/sim_driver.h"
#include "src/workload/curve_pool.h"
#include "src/workload/scenario.h"

namespace dpack {
namespace {

AlphaGridPtr Grid() { return AlphaGrid::Default(); }

const CurvePool& Pool() {
  static const CurvePool pool(Grid(), BlockCapacityCurve(Grid(), 10.0, 1e-7));
  return pool;
}

// A spec drawn uniformly from the whole knob space, sized so one run stays test-fast.
ScenarioSpec RandomSpec(Rng& rng) {
  ScenarioSpec spec;
  spec.name = "fuzz";
  spec.seed = static_cast<uint64_t>(rng.UniformInt(0, 1 << 30));

  spec.block_pattern = static_cast<BlockArrivalPattern>(rng.UniformInt(0, 2));
  spec.num_blocks = static_cast<size_t>(rng.UniformInt(2, 10));
  spec.block_interval = rng.Uniform(0.5, 1.5);
  spec.cohort_size = static_cast<size_t>(rng.UniformInt(1, 4));
  spec.jitter_fraction = rng.Uniform(0.0, 0.5);

  spec.arrival = static_cast<ArrivalProcess>(rng.UniformInt(0, 3));
  spec.task_span = rng.Uniform(6.0, 12.0);
  spec.task_rate = rng.Uniform(1.0, 5.0);
  spec.burst_on = rng.Uniform(1.0, 3.0);
  spec.burst_off = rng.Uniform(0.0, 3.0);
  spec.burst_floor = rng.Uniform(0.0, 0.5);
  spec.diurnal_period = rng.Uniform(3.0, 9.0);
  spec.diurnal_amplitude = rng.Uniform(0.0, 1.0);

  spec.mix = static_cast<MechanismMix>(rng.UniformInt(0, 2));
  spec.center_alpha = rng.Uniform(2.0, 10.0);
  spec.sigma_alpha = rng.Uniform(0.0, 4.0);
  spec.best_alpha_skew = rng.Uniform(0.5, 3.0);

  spec.demand = static_cast<DemandDistribution>(rng.UniformInt(0, 4));
  spec.eps_min = rng.Uniform(0.02, 0.3);
  spec.eps_min_lo = rng.Uniform(0.01, 0.05);
  spec.eps_min_hi = spec.eps_min_lo + rng.Uniform(0.05, 0.45);
  spec.zipf_exponent = rng.Uniform(0.5, 2.0);
  spec.zipf_levels = static_cast<size_t>(rng.UniformInt(2, 10));
  spec.pareto_shape = rng.Uniform(0.5, 1.5);
  spec.capacity_divisor = static_cast<size_t>(rng.UniformInt(1, 10));

  spec.weights = static_cast<WeightDistribution>(rng.UniformInt(0, 2));
  spec.weight_pareto_shape = rng.Uniform(0.8, 1.5);

  spec.selection = static_cast<BlockSelectionPolicy>(rng.UniformInt(0, 2));
  spec.mu_blocks = rng.Uniform(1.0, 5.0);
  spec.sigma_blocks = rng.Uniform(0.0, 2.0);
  spec.max_blocks_per_task = static_cast<size_t>(rng.UniformInt(1, 8));
  spec.hotspot_fraction = rng.Uniform(0.0, 0.95);
  spec.hotspot_blocks = static_cast<size_t>(rng.UniformInt(1, 3));

  spec.timeouts = static_cast<TimeoutRegime>(rng.UniformInt(0, 2));
  spec.timeout = rng.Uniform(2.0, 8.0);
  spec.timeout_fraction = rng.Uniform(0.0, 1.0);

  spec.unlock_steps = rng.UniformInt(2, 12);
  return spec;
}

std::unique_ptr<Scheduler> MakeScheduler(GreedyMetric metric, bool incremental) {
  return std::make_unique<GreedyScheduler>(
      metric, GreedySchedulerOptions{.eta = 0.05, .incremental = incremental});
}

// Budget safety against a captured cluster state. The Rényi filter admits on "exists
// alpha" — a Commit charges every order, so individual orders may legitimately exceed
// capacity — and each admission was checked against the then-unlocked capacity. Since
// consumption only changes at commits and unlocking only grows, every observable state
// must still have at least one order whose cumulative consumption fits the unlocked
// budget (within CanAccept's 1e-9 * (1 + cap) admission tolerance). That witness order is
// what bounds the block's traditional-DP translation by (eps_g, delta_g).
void CheckBudgetSafety(const ClusterSnapshot& snapshot, const std::string& label) {
  RdpCurve capacity = BlockCapacityCurve(Grid(), snapshot.eps_g, snapshot.delta_g);
  for (const SnapshotBlockState& block : snapshot.blocks) {
    ASSERT_EQ(block.consumed.size(), capacity.size()) << label;
    ASSERT_GE(block.unlocked_fraction, 0.0) << label;
    ASSERT_LE(block.unlocked_fraction, 1.0) << label;
    bool within_some_order = false;
    for (size_t a = 0; a < capacity.size(); ++a) {
      EXPECT_GE(block.consumed[a], 0.0) << label << " block " << block.id << " order " << a;
      double unlocked = block.unlocked_fraction * capacity.epsilon(a);
      if (capacity.epsilon(a) > 0.0 &&
          block.consumed[a] <= unlocked + 1e-9 * (1.0 + unlocked)) {
        within_some_order = true;
      }
    }
    EXPECT_TRUE(within_some_order)
        << label << " block " << block.id
        << " exceeds its (eps_g, delta_g) budget at every order";
  }
}

void RunFuzzIteration(uint64_t seed) {
  SCOPED_TRACE("fuzz seed=" + std::to_string(seed) +
               " (replay: DPACK_FUZZ_REPLAY_SEED=" + std::to_string(seed) + ")");
  Rng rng(seed);
  ScenarioSpec spec = RandomSpec(rng);
  GreedyMetric metric = static_cast<GreedyMetric>(rng.UniformInt(0, 3));

  ScenarioWorkload workload = GenerateScenario(Pool(), spec);
  workload.sim.record_grant_trace = true;

  // Reference: the recompute engine on the same stream.
  SimResult reference = RunOnlineSimulation(MakeScheduler(metric, /*incremental=*/false),
                                            workload.tasks, workload.sim);

  // Engine under test, capturing the final cluster state (stop_after_cycles clamps to the
  // run's total cycle count, so this is the uninterrupted run plus a final snapshot).
  SimConfig full_sim = workload.sim;
  full_sim.stop_after_cycles = reference.cycles_run + 1000;
  SimResult full =
      RunOnlineSimulation(MakeScheduler(metric, /*incremental=*/true), workload.tasks, full_sim);
  ASSERT_TRUE(full.snapshot.has_value());

  // Engine equivalence on an arbitrary workload shape.
  EXPECT_EQ(full.grant_trace, reference.grant_trace);
  EXPECT_EQ(full.cycles_run, reference.cycles_run);

  // Conservation: every generated task is submitted (the horizon covers every arrival),
  // and each ends in exactly one of granted / evicted / still-pending.
  EXPECT_EQ(full.metrics.submitted(), workload.tasks.size());
  EXPECT_EQ(full.metrics.allocated() + full.metrics.evicted() + full.pending_at_end,
            full.metrics.submitted());

  CheckBudgetSafety(*full.snapshot, "final state");

  if (reference.cycles_run >= 2) {
    // Mid-run kill: unlock monotonicity across checkpoints, and resume equivalence.
    SimConfig mid_sim = workload.sim;
    mid_sim.stop_after_cycles = std::max<size_t>(1, reference.cycles_run / 2);
    SimResult mid =
        RunOnlineSimulation(MakeScheduler(metric, /*incremental=*/true), workload.tasks, mid_sim);
    ASSERT_TRUE(mid.snapshot.has_value());
    CheckBudgetSafety(*mid.snapshot, "mid state");

    // Blocks present at the mid checkpoint exist in the final state with the same id;
    // unlocked budget may only have grown since.
    ASSERT_LE(mid.snapshot->blocks.size(), full.snapshot->blocks.size());
    for (size_t b = 0; b < mid.snapshot->blocks.size(); ++b) {
      EXPECT_EQ(mid.snapshot->blocks[b].id, full.snapshot->blocks[b].id);
      EXPECT_LE(mid.snapshot->blocks[b].unlocked_fraction,
                full.snapshot->blocks[b].unlocked_fraction)
          << "unlocked budget regressed on block " << b;
    }

    SimResult resumed = ResumeOnlineSimulation(MakeScheduler(metric, /*incremental=*/true),
                                               *mid.snapshot, workload.tasks, workload.sim);
    std::vector<std::vector<TaskId>> stitched = mid.grant_trace;
    stitched.insert(stitched.end(), resumed.grant_trace.begin(), resumed.grant_trace.end());
    EXPECT_EQ(stitched, reference.grant_trace);
  }
}

size_t FuzzIterations() {
  const char* env = std::getenv("DPACK_FUZZ_ITERATIONS");
  if (env != nullptr) {
    long long parsed = std::atoll(env);
    if (parsed > 0) {
      return static_cast<size_t>(parsed);
    }
  }
  return 100;  // The CI soak bound (acceptance: >= 100 randomized specs).
}

TEST(ScenarioFuzzTest, RandomizedSpecsHoldGlobalInvariants) {
  if (const char* replay = std::getenv("DPACK_FUZZ_REPLAY_SEED")) {
    RunFuzzIteration(static_cast<uint64_t>(std::atoll(replay)));
    return;
  }
  constexpr uint64_t kBaseSeed = 90210;
  size_t iterations = FuzzIterations();
  for (size_t i = 0; i < iterations; ++i) {
    RunFuzzIteration(kBaseSeed + i);
    if (testing::Test::HasFatalFailure() || testing::Test::HasNonfatalFailure()) {
      return;  // The SCOPED_TRACE of the failing seed is in the log; stop the soak.
    }
  }
}

}  // namespace
}  // namespace dpack
