// Scenario explorer: generate any registered scenario at any seed, inspect the stream,
// run it through a chosen engine shape, and optionally export it as a portable CSV trace
// (explicit block lists included — trace format v2).
//
//   example_scenario_explorer list
//   example_scenario_explorer <scenario> [--seed N] [--metric dpack|dpf|area|fcfs]
//                             [--engine recompute|incremental] [--shards N]
//                             [--export path.csv]
//
// Because scenarios are addressed by (name, seed), the exact stream this tool prints is
// the one the matrix/fuzz suites and bench/fig10_scenarios measure.

#include <cstdio>
#include <cstdlib>
#include <memory>
#include <string>

#include "src/common/cli.h"
#include "src/dpack/dpack.h"

namespace {

using namespace dpack;

constexpr char kUsage[] =
    "example_scenario_explorer <scenario> [--seed N] [--metric dpack|dpf|area|fcfs]\n"
    "                          [--engine recompute|incremental] [--shards N]\n"
    "                          [--export path.csv]";

int ListScenarios() {
  std::printf("registered scenarios (see src/README.md for the stress-axis catalogue):\n");
  for (const std::string& name : ScenarioRegistryNames()) {
    std::printf("  %s\n", name.c_str());
  }
  return 0;
}

GreedyMetric ParseMetric(const std::string& value) {
  if (value == "dpack") return GreedyMetric::kDpack;
  if (value == "dpf") return GreedyMetric::kDpf;
  if (value == "area") return GreedyMetric::kArea;
  if (value == "fcfs") return GreedyMetric::kFcfs;
  std::fprintf(stderr, "unknown metric '%s' (want dpack|dpf|area|fcfs)\n", value.c_str());
  std::exit(2);
}

}  // namespace

int main(int argc, char** argv) {
  if (argc < 2 || std::string(argv[1]) == "list" || std::string(argv[1]) == "--help") {
    return ListScenarios();
  }
  std::string name = argv[1];
  uint64_t seed = 1;
  GreedyMetric metric = GreedyMetric::kDpack;
  std::string engine = "incremental";
  size_t num_shards = 1;
  std::string export_path;
  for (int i = 2; i < argc; i += 2) {
    std::string flag = argv[i];
    if (i + 1 >= argc) {
      std::fprintf(stderr, "flag '%s' requires a value\n", flag.c_str());
      return 2;
    }
    std::string value = argv[i + 1];
    if (flag == "--seed") {
      seed = ParseUint64Arg(argv[0], value, "--seed", kUsage);
    } else if (flag == "--metric") {
      metric = ParseMetric(value);
    } else if (flag == "--engine") {
      if (value != "recompute" && value != "incremental") {
        std::fprintf(stderr, "unknown engine '%s' (want recompute|incremental)\n",
                     value.c_str());
        return 2;
      }
      engine = value;
    } else if (flag == "--shards") {
      num_shards = ParseSizeArg(argv[0], value, "--shards", kUsage);
    } else if (flag == "--export") {
      export_path = value;
    } else {
      std::fprintf(stderr, "unknown flag '%s'\n", flag.c_str());
      return 2;
    }
  }

  AlphaGridPtr grid = AlphaGrid::Default();
  CurvePool pool(grid, BlockCapacityCurve(grid, 10.0, 1e-7));
  ScenarioWorkload workload = GenerateScenario(pool, ScenarioByName(name, seed));

  std::printf("scenario %s seed %llu: %zu tasks over [0, %.2f), %zu blocks\n", name.c_str(),
              static_cast<unsigned long long>(seed), workload.tasks.size(),
              workload.tasks.empty() ? 0.0 : workload.tasks.back().arrival_time,
              workload.sim.block_arrival_times.size());
  size_t explicit_lists = 0;
  for (const Task& task : workload.tasks) {
    explicit_lists += task.blocks.empty() ? 0 : 1;
  }
  std::printf("  explicit block lists: %zu/%zu tasks\n", explicit_lists,
              workload.tasks.size());
  WorkloadStats stats = ComputeWorkloadStats(workload.tasks, pool.capacity());
  std::printf("%s\n", stats.Summary(grid).c_str());

  if (!export_path.empty()) {
    if (!WriteTraceFile(export_path, workload.tasks, grid)) {
      std::fprintf(stderr, "cannot write %s\n", export_path.c_str());
      return 1;
    }
    std::printf("exported trace to %s\n", export_path.c_str());
  }

  GreedySchedulerOptions options;
  options.incremental = engine != "recompute";
  options.num_shards = num_shards;
  auto scheduler = std::make_unique<GreedyScheduler>(metric, options);
  std::string metric_name = scheduler->name();
  SimResult result =
      RunOnlineSimulation(std::move(scheduler), workload.tasks, workload.sim);

  std::printf("\nengine=%s shards=%zu metric=%s: %zu cycles\n", engine.c_str(), num_shards,
              metric_name.c_str(), result.cycles_run);
  std::printf("%s\n", result.metrics.Summary().c_str());
  std::printf("pending at end: %zu\n", result.pending_at_end);
  const ScheduleContextStats& engine_stats = result.scheduler_stats;
  if (options.incremental && result.cycles_run > 0) {
    double cycles = static_cast<double>(result.cycles_run);
    std::printf("engine work per cycle: rescored %.1f reused %.1f refreshed %.1f\n",
                static_cast<double>(engine_stats.tasks_rescored) / cycles,
                static_cast<double>(engine_stats.tasks_reused) / cycles,
                static_cast<double>(engine_stats.blocks_refreshed) / cycles);
  }
  return 0;
}
