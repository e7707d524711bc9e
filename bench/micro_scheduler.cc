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

}  // namespace
}  // namespace dpack::bench
