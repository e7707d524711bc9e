// Scenario sweep (ISSUE 5): steady-state engine-work counters and allocation outcomes per
// registered scenario family. Complements fig5 (which measures one synthetic steady-state
// regime) by recording how the incremental engine's work (tasks scored, tasks settled by a
// rejection memo, blocks refreshed) responds to the workload *shape*: bursty arrivals dirty
// more blocks per cycle, hot-spot block lists concentrate contention, batched cohorts arrive
// as refresh spikes, tiny-demand trickles drain queues and leave little to settle.
//
// --json <path> emits deterministic work counters for a fixed subset of representative
// scenarios in google-benchmark's {"benchmarks": [...]} shape, consumed by the CI
// regression gate (scripts/check_bench_regression.py against bench/baseline.json). The
// counters are exact functions of (scenario, seed, engine), so they are stable across
// machines; wall time rides along for humans and is never gated. Only the subset is dumped
// because the gate requires every dumped benchmark to have a baseline entry — extend
// kGatedScenarios together with scripts/update_bench_baseline.sh when promoting a scenario
// into the gate.

#include <cstdio>
#include <memory>
#include <string>
#include <vector>

#include "bench/bench_util.h"

namespace dpack::bench {
namespace {

constexpr uint64_t kScenarioSeed = 1234;

// Scenarios gated by CI (a representative third of the registry: the stochastic baseline,
// the bursty/hot-spot stress, and the cohort/skew stress).
const char* const kGatedScenarios[] = {"steady_poisson", "bursty_hotspot", "cohort_skew"};

struct ScenarioOutcome {
  SimResult result;
  size_t num_tasks = 0;
  double wall_ms = 0.0;
};

ScenarioOutcome RunScenario(const std::string& name, GreedyMetric metric, uint64_t seed) {
  ScenarioWorkload workload = GenerateScenario(SharedPool(), ScenarioByName(name, seed));
  ScenarioOutcome outcome;
  outcome.num_tasks = workload.tasks.size();
  auto scheduler = std::make_unique<GreedyScheduler>(
      metric, GreedySchedulerOptions{.eta = 0.05, .incremental = true});
  outcome.result =
      RunOnlineSimulation(std::move(scheduler), std::move(workload.tasks), workload.sim);
  outcome.wall_ms = 1e3 * outcome.result.metrics.total_runtime_seconds();
  return outcome;
}

void RunSweep() {
  CsvTable table({"scenario", "metric", "tasks", "cycles", "allocated", "evicted",
                  "pending_end", "rescored_per_cycle", "reused_per_cycle",
                  "refreshed_per_cycle", "sched_ms"});
  for (const std::string& name : ScenarioRegistryNames()) {
    for (GreedyMetric metric :
         {GreedyMetric::kDpack, GreedyMetric::kDpf, GreedyMetric::kArea}) {
      ScenarioOutcome outcome = RunScenario(name, metric, kScenarioSeed);
      const ScheduleContextStats& stats = outcome.result.scheduler_stats;
      double cycles = static_cast<double>(outcome.result.cycles_run);
      GreedyScheduler named(metric);
      table.NewRow()
          .Add(name)
          .Add(named.name())
          .Add(outcome.num_tasks)
          .Add(outcome.result.cycles_run)
          .Add(outcome.result.metrics.allocated())
          .Add(outcome.result.metrics.evicted())
          .Add(outcome.result.pending_at_end)
          .Add(FormatDouble(static_cast<double>(stats.tasks_rescored) / cycles))
          .Add(FormatDouble(static_cast<double>(stats.tasks_reused) / cycles))
          .Add(FormatDouble(static_cast<double>(stats.blocks_refreshed) / cycles))
          .Add(FormatDouble(outcome.wall_ms));
    }
  }
  table.Print("Fig. 10: incremental-engine work per scenario family (seed " +
              std::to_string(kScenarioSeed) + ")");
}

bool DumpCountersJson(const std::string& path) {
  std::vector<BenchJsonEntry> entries;
  for (const char* name : kGatedScenarios) {
    for (GreedyMetric metric : {GreedyMetric::kDpack, GreedyMetric::kDpf}) {
      ScenarioOutcome outcome = RunScenario(name, metric, kScenarioSeed);
      const ScheduleContextStats& stats = outcome.result.scheduler_stats;
      double cycles = static_cast<double>(outcome.result.cycles_run);
      GreedyScheduler named(metric);
      entries.push_back(BenchJsonEntry{
          "fig10_scenarios/" + std::string(name) + "/" + named.name(),
          {{"wall_ms", outcome.wall_ms},
           {"rescored_per_cycle", static_cast<double>(stats.tasks_rescored) / cycles},
           {"reused_per_cycle", static_cast<double>(stats.tasks_reused) / cycles},
           {"blocks_refreshed_per_cycle",
            static_cast<double>(stats.blocks_refreshed) / cycles},
           {"best_alpha_per_cycle",
            static_cast<double>(stats.best_alpha_recomputes) / cycles},
           {"allocated_per_cycle",
            static_cast<double>(outcome.result.metrics.allocated()) / cycles},
           {"full_recomputes", static_cast<double>(stats.full_recomputes)}}});
    }
  }
  return WriteBenchCountersJson(path, entries);
}

std::string ParseJsonPath(int argc, char** argv) {
  for (int i = 1; i + 1 < argc; ++i) {
    if (std::string(argv[i]) == "--json") {
      return argv[i + 1];
    }
  }
  return "";
}

}  // namespace
}  // namespace dpack::bench

int main(int argc, char** argv) {
  using namespace dpack::bench;
  Banner("Fig. 10: engine work across the scenario registry", "ISSUE 5, beyond the paper");
  std::string json_path = ParseJsonPath(argc, argv);
  if (!json_path.empty()) {
    // A failed dump must fail the CI step here, not two steps later when the regression
    // gate cannot find the file.
    return DumpCountersJson(json_path) ? 0 : 1;
  }
  RunSweep();
  return 0;
}
