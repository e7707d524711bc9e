// Scheduler-cycle microbenchmarks (google-benchmark): per-batch cost of each policy as the
// batch grows, isolating the Alg. 1 overheads (DPack's per-(block, order) knapsacks vs
// DPF's dominant-share sort).

#include <benchmark/benchmark.h>

#include "bench/bench_util.h"

namespace dpack::bench {
namespace {

std::vector<Task> BatchTasks(size_t n) {
  MicrobenchmarkConfig config;
  config.num_tasks = n;
  config.num_blocks = 20;
  config.mu_blocks = 5.0;
  config.sigma_blocks = 3.0;
  config.sigma_alpha = 4.0;
  config.eps_min = 0.01;
  config.seed = 9;
  std::vector<Task> tasks = GenerateMicrobenchmark(SharedPool(), config);
  return tasks;
}

void RunBatch(benchmark::State& state, SchedulerKind kind) {
  std::vector<Task> tasks = BatchTasks(static_cast<size_t>(state.range(0)));
  for (auto _ : state) {
    state.PauseTiming();
    BlockManager blocks(AlphaGrid::Default(), kEpsG, kDeltaG);
    for (int b = 0; b < 20; ++b) {
      blocks.AddBlock(0.0, /*unlocked=*/true);
    }
    auto scheduler = CreateScheduler(kind);
    state.ResumeTiming();
    benchmark::DoNotOptimize(scheduler->ScheduleBatch(tasks, blocks));
  }
}

void BM_DpackBatch(benchmark::State& state) { RunBatch(state, SchedulerKind::kDpack); }
BENCHMARK(BM_DpackBatch)->Arg(100)->Arg(1000)->Arg(5000)->Unit(benchmark::kMillisecond);

void BM_DpfBatch(benchmark::State& state) { RunBatch(state, SchedulerKind::kDpf); }
BENCHMARK(BM_DpfBatch)->Arg(100)->Arg(1000)->Arg(5000)->Unit(benchmark::kMillisecond);

void BM_AreaBatch(benchmark::State& state) { RunBatch(state, SchedulerKind::kArea); }
BENCHMARK(BM_AreaBatch)->Arg(100)->Arg(1000)->Arg(5000)->Unit(benchmark::kMillisecond);

void BM_FcfsBatch(benchmark::State& state) { RunBatch(state, SchedulerKind::kFcfs); }
BENCHMARK(BM_FcfsBatch)->Arg(100)->Arg(1000)->Arg(5000)->Unit(benchmark::kMillisecond);

// --- Incremental engine vs recompute in the online steady state ---------------------------
//
// The regime of the tentpole claim: a persistent scheduler sees the same large pending queue
// cycle after cycle while only a small fraction of blocks (1/20 = 5% here) changes between
// cycles. The recompute path rescores everything; the incremental engine re-checks only the
// tasks whose rejecting block was dirtied, and scores none (no task fits). The workload
// (bench_util's SteadyStateTasks) is shared with the fig5 addendum so both harnesses measure
// the same scenario.
//
// The steady benchmarks run a fixed iteration count (a multiple of the 20-block dirty
// rotation) and report the engine's work counters per cycle. Unlike wall time, the counters
// are deterministic for a fixed workload, which is what the CI bench-artifact job's
// regression gate compares against bench/baseline.json.

constexpr int kSteadyIterations = 60;  // 3 full rotations of the dirty-block cursor.

// Attaches the engine's per-cycle work counters (deltas across the timed loop) to the
// benchmark so they land in the JSON artifact. No-op for the recompute path (no engine).
void ReportEngineCounters(benchmark::State& state, const GreedyScheduler& scheduler,
                          const ScheduleContextStats& at_entry) {
  const IncrementalEngine* engine = scheduler.engine();
  if (engine == nullptr || state.iterations() == 0) {
    return;
  }
  ScheduleContextStats delta = engine->stats().Delta(at_entry);
  double cycles = static_cast<double>(state.iterations());
  state.counters["rescored_per_cycle"] = static_cast<double>(delta.tasks_rescored) / cycles;
  state.counters["reused_per_cycle"] = static_cast<double>(delta.tasks_reused) / cycles;
  state.counters["blocks_refreshed_per_cycle"] =
      static_cast<double>(delta.blocks_refreshed) / cycles;
  state.counters["best_alpha_per_cycle"] =
      static_cast<double>(delta.best_alpha_recomputes) / cycles;
  state.counters["full_recomputes"] = static_cast<double>(delta.full_recomputes);
  // Gated at zero: the candidate and sort buffers persist across cycles, so steady-state
  // cycles must not grow them (see ScheduleContextStats::merge_allocs).
  state.counters["merge_allocs"] = static_cast<double>(delta.merge_allocs);
}

void RunSteadyState(benchmark::State& state, GreedyMetric metric, bool incremental) {
  std::vector<Task> tasks = SteadyStateTasks(static_cast<size_t>(state.range(0)));
  BlockManager blocks(AlphaGrid::Default(), kEpsG, kDeltaG);
  for (size_t b = 0; b < kSteadyStateBlocks; ++b) {
    blocks.AddBlock(0.0, /*unlocked=*/true);
  }
  RdpCurve tiny = SteadyStateTinyDemand();
  GreedyScheduler scheduler(metric, GreedySchedulerOptions{.incremental = incremental});
  scheduler.ScheduleBatch(tasks, blocks);  // Warm the engine: steady state, not first cycle.
  size_t dirty_cursor = 0;
  // Second warm-up with a dirty block, like the timed cycles. The first cycle sized the
  // candidate buffers for the whole batch, so steady-state cycles perform zero merge
  // allocations (merge_allocs delta below).
  blocks.block(static_cast<BlockId>(dirty_cursor++ % kSteadyStateBlocks)).Commit(tiny);
  scheduler.ScheduleBatch(tasks, blocks);
  ScheduleContextStats at_entry;
  if (scheduler.engine() != nullptr) {
    at_entry = scheduler.engine()->stats();
  }
  for (auto _ : state) {
    state.PauseTiming();
    // Dirty 1 of 20 blocks (5%) per cycle, as a real cycle's commits would.
    blocks.block(static_cast<BlockId>(dirty_cursor++ % kSteadyStateBlocks)).Commit(tiny);
    state.ResumeTiming();
    benchmark::DoNotOptimize(scheduler.ScheduleBatch(tasks, blocks));
  }
  ReportEngineCounters(state, scheduler, at_entry);
}

void BM_DpackSteadyIncremental(benchmark::State& state) {
  RunSteadyState(state, GreedyMetric::kDpack, true);
}
BENCHMARK(BM_DpackSteadyIncremental)
    ->Arg(1000)
    ->Iterations(kSteadyIterations)
    ->Unit(benchmark::kMillisecond);

void BM_DpackSteadyRecompute(benchmark::State& state) {
  RunSteadyState(state, GreedyMetric::kDpack, false);
}
BENCHMARK(BM_DpackSteadyRecompute)
    ->Arg(1000)
    ->Iterations(kSteadyIterations)
    ->Unit(benchmark::kMillisecond);

void BM_DpfSteadyIncremental(benchmark::State& state) {
  RunSteadyState(state, GreedyMetric::kDpf, true);
}
BENCHMARK(BM_DpfSteadyIncremental)
    ->Arg(1000)
    ->Iterations(kSteadyIterations)
    ->Unit(benchmark::kMillisecond);

void BM_DpfSteadyRecompute(benchmark::State& state) {
  RunSteadyState(state, GreedyMetric::kDpf, false);
}
BENCHMARK(BM_DpfSteadyRecompute)
    ->Arg(1000)
    ->Iterations(kSteadyIterations)
    ->Unit(benchmark::kMillisecond);

void BM_AreaSteadyIncremental(benchmark::State& state) {
  RunSteadyState(state, GreedyMetric::kArea, true);
}
BENCHMARK(BM_AreaSteadyIncremental)
    ->Arg(1000)
    ->Iterations(kSteadyIterations)
    ->Unit(benchmark::kMillisecond);

void BM_AreaSteadyRecompute(benchmark::State& state) {
  RunSteadyState(state, GreedyMetric::kArea, false);
}
BENCHMARK(BM_AreaSteadyRecompute)
    ->Arg(1000)
    ->Iterations(kSteadyIterations)
    ->Unit(benchmark::kMillisecond);

}  // namespace
}  // namespace dpack::bench
