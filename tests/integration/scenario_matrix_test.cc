// Engine-matrix differential harness over the scenario registry: every registered
// scenario must produce byte-identical grant traces across the engine matrix — the
// recompute reference and the incremental engine — and must survive a kill-at-a-cycle +
// resume leg (through the binary wire format, reusing the recovery machinery) that
// stitches back to the same trace. Runs in the shuffled ctest leg.

#include <gtest/gtest.h>

#include <memory>
#include <string>
#include <vector>

#include "src/common/rng.h"
#include "src/core/scheduler.h"
#include "src/orchestrator/checkpoint.h"
#include "src/sim/sim_driver.h"
#include "src/workload/curve_pool.h"
#include "src/workload/scenario.h"

namespace dpack {
namespace {

constexpr uint64_t kScenarioSeed = 1234;

AlphaGridPtr Grid() { return AlphaGrid::Default(); }

const CurvePool& Pool() {
  static const CurvePool pool(Grid(), BlockCapacityCurve(Grid(), 10.0, 1e-7));
  return pool;
}

std::unique_ptr<Scheduler> MakeScheduler(GreedyMetric metric, bool incremental) {
  return std::make_unique<GreedyScheduler>(
      metric, GreedySchedulerOptions{.eta = 0.05, .incremental = incremental});
}

// The deterministic face of the metrics (cycle runtimes are wall clock and excluded).
void ExpectMetricsEqual(const AllocationMetrics& actual, const AllocationMetrics& expected,
                        const std::string& label) {
  EXPECT_EQ(actual.submitted(), expected.submitted()) << label;
  EXPECT_EQ(actual.allocated(), expected.allocated()) << label;
  EXPECT_EQ(actual.evicted(), expected.evicted()) << label;
  EXPECT_EQ(actual.submitted_weight(), expected.submitted_weight()) << label;
  EXPECT_EQ(actual.allocated_weight(), expected.allocated_weight()) << label;
  EXPECT_EQ(actual.delays().samples(), expected.delays().samples()) << label;
}

// The scenario's workload plus the recompute reference trace every engine must reproduce.
struct ScenarioReference {
  ScenarioWorkload workload;
  SimResult reference;
};

ScenarioReference MakeReference(const std::string& name, GreedyMetric metric) {
  ScenarioReference ref;
  ref.workload = GenerateScenario(Pool(), ScenarioByName(name, kScenarioSeed));
  ref.workload.sim.record_grant_trace = true;
  ref.reference = RunOnlineSimulation(MakeScheduler(metric, /*incremental=*/false),
                                      ref.workload.tasks, ref.workload.sim);
  return ref;
}

class ScenarioMatrixTest : public testing::TestWithParam<GreedyMetric> {};

TEST_P(ScenarioMatrixTest, EveryScenarioMatchesRecomputeAcrossTheEngineMatrix) {
  for (const std::string& name : ScenarioRegistryNames()) {
    SCOPED_TRACE("scenario=" + name);
    ScenarioReference ref = MakeReference(name, GetParam());
    ASSERT_GT(ref.reference.cycles_run, 2u);
    // Every registered scenario must actually exercise scheduling under every metric —
    // a scenario that grants nothing proves nothing.
    ASSERT_GT(ref.reference.metrics.allocated(), 0u);

    SimResult run = RunOnlineSimulation(MakeScheduler(GetParam(), /*incremental=*/true),
                                        ref.workload.tasks, ref.workload.sim);
    EXPECT_EQ(run.grant_trace, ref.reference.grant_trace) << name;
    EXPECT_EQ(run.cycles_run, ref.reference.cycles_run) << name;
    EXPECT_EQ(run.pending_at_end, ref.reference.pending_at_end) << name;
    ExpectMetricsEqual(run.metrics, ref.reference.metrics, name);
    if (GetParam() != GreedyMetric::kFcfs) {
      EXPECT_EQ(run.scheduler_stats.full_recomputes, 0u) << name;
    }
  }
}

TEST_P(ScenarioMatrixTest, KillAndResumeRestoresEveryScenario) {
  // The crash-restart leg of the matrix: for every scenario, kill the run at a
  // randomly-drawn cycle (sometimes mid-submission-drain), ship the snapshot through the
  // binary wire format, resume, and require the stitched grant trace to equal the
  // uninterrupted reference.
  for (const std::string& name : ScenarioRegistryNames()) {
    SCOPED_TRACE("scenario=" + name);
    ScenarioReference ref = MakeReference(name, GetParam());
    ASSERT_GT(ref.reference.cycles_run, 2u);

    Rng rng(kScenarioSeed ^ (static_cast<uint64_t>(GetParam()) + 1));
    for (int trial = 0; trial < 2; ++trial) {
      size_t k = static_cast<size_t>(
          rng.UniformInt(1, static_cast<int64_t>(ref.reference.cycles_run) - 1));
      bool mid_drain = rng.Bernoulli(0.5);
      std::string label =
          name + " k=" + std::to_string(k) + " mid_drain=" + std::to_string(mid_drain);

      SimConfig split = ref.workload.sim;
      split.stop_after_cycles = k;
      split.stop_mid_drain = mid_drain;
      SimResult prefix = RunOnlineSimulation(MakeScheduler(GetParam(), /*incremental=*/true),
                                             ref.workload.tasks, split);
      ASSERT_TRUE(prefix.snapshot.has_value()) << label;

      SnapshotParseResult parsed = DecodeSnapshotBinary(EncodeSnapshotBinary(*prefix.snapshot));
      ASSERT_TRUE(parsed.ok) << label << ": " << parsed.error;

      SimResult resumed =
          ResumeOnlineSimulation(MakeScheduler(GetParam(), /*incremental=*/true),
                                 parsed.snapshot, ref.workload.tasks, ref.workload.sim);

      std::vector<std::vector<TaskId>> stitched = prefix.grant_trace;
      stitched.insert(stitched.end(), resumed.grant_trace.begin(),
                      resumed.grant_trace.end());
      EXPECT_EQ(stitched, ref.reference.grant_trace) << label;
      EXPECT_EQ(resumed.pending_at_end, ref.reference.pending_at_end) << label;
      ExpectMetricsEqual(resumed.metrics, ref.reference.metrics, label);
    }
  }
}

INSTANTIATE_TEST_SUITE_P(AllMetrics, ScenarioMatrixTest,
                         testing::Values(GreedyMetric::kDpack, GreedyMetric::kDpf,
                                         GreedyMetric::kArea, GreedyMetric::kFcfs),
                         [](const testing::TestParamInfo<GreedyMetric>& param_info) {
                           switch (param_info.param) {
                             case GreedyMetric::kDpack:
                               return "DPack";
                             case GreedyMetric::kDpf:
                               return "DPF";
                             case GreedyMetric::kArea:
                               return "Area";
                             case GreedyMetric::kFcfs:
                               return "FCFS";
                           }
                           return "unknown";
                         });

}  // namespace
}  // namespace dpack
