// Component microbenchmarks (google-benchmark): single-dimension knapsack solvers and the
// exact privacy-knapsack branch-and-bound. Quantifies the solver choices src/knapsack/
// single_dim.h describes: the max-cardinality fast path vs FPTAS vs greedy, FPTAS cost vs
// eta, and the B&B's growth with instance size.

#include <benchmark/benchmark.h>

#include "bench/bench_util.h"

namespace dpack::bench {
namespace {

std::vector<KnapsackItem> RandomItems(size_t n, bool uniform_profits, uint64_t seed) {
  Rng rng(seed);
  std::vector<KnapsackItem> items;
  items.reserve(n);
  for (size_t i = 0; i < n; ++i) {
    items.push_back({uniform_profits ? 1.0 : rng.Uniform(1.0, 100.0), rng.Uniform(0.0, 1.0)});
  }
  return items;
}

// Args: item count, capacity in thousandths (demands are uniform in [0, 1)). Besides the
// large-capacity sweep, two cases mirror the e2e workloads' best-alpha solves per usable
// order: ~13 requesters with ~3 taken (engine_churn) and ~300 with < 1 taken on average
// (engine_backlog).
void BM_MaxCardinality(benchmark::State& state) {
  auto items = RandomItems(static_cast<size_t>(state.range(0)), true, 1);
  double capacity = static_cast<double>(state.range(1)) / 1000.0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(MaxCardinalityKnapsack(items, capacity));
  }
}
BENCHMARK(BM_MaxCardinality)
    ->Args({100, 10'000})
    ->Args({1000, 10'000})
    ->Args({10'000, 10'000})
    ->Args({13, 450})
    ->Args({300, 2});

// The count-only form BestAlphaForBlock calls on each demand column.
void BM_MaxCardinalityCount(benchmark::State& state) {
  auto items = RandomItems(static_cast<size_t>(state.range(0)), true, 1);
  double capacity = static_cast<double>(state.range(1)) / 1000.0;
  std::vector<double> demands(items.size());
  for (size_t i = 0; i < items.size(); ++i) {
    demands[i] = items[i].demand;
  }
  for (auto _ : state) {
    benchmark::DoNotOptimize(MaxCardinalityCount(demands, capacity));
  }
}
BENCHMARK(BM_MaxCardinalityCount)->Args({13, 450})->Args({300, 2});

void BM_GreedyDensity(benchmark::State& state) {
  auto items = RandomItems(static_cast<size_t>(state.range(0)), false, 2);
  for (auto _ : state) {
    benchmark::DoNotOptimize(GreedyDensityKnapsack(items, 10.0));
  }
}
BENCHMARK(BM_GreedyDensity)->Arg(100)->Arg(1000)->Arg(10000);

void BM_FptasEtaSweep(benchmark::State& state) {
  auto items = RandomItems(200, false, 3);
  double eta = 1.0 / static_cast<double>(state.range(0));
  for (auto _ : state) {
    benchmark::DoNotOptimize(FptasKnapsack(items, 10.0, eta));
  }
}
BENCHMARK(BM_FptasEtaSweep)->Arg(2)->Arg(10)->Arg(50);

void BM_ExactSingleDim(benchmark::State& state) {
  auto items = RandomItems(static_cast<size_t>(state.range(0)), false, 4);
  for (auto _ : state) {
    benchmark::DoNotOptimize(ExactKnapsack(items, 5.0));
  }
}
BENCHMARK(BM_ExactSingleDim)->Arg(20)->Arg(50)->Arg(100);

PkInstance RandomInstance(size_t tasks, size_t blocks, size_t orders, uint64_t seed) {
  Rng rng(seed);
  PkInstance instance;
  instance.num_blocks = blocks;
  instance.num_orders = orders;
  instance.capacity.assign(blocks * orders, 3.0);
  for (size_t i = 0; i < tasks; ++i) {
    PkTask task;
    task.weight = 1.0;
    size_t k = static_cast<size_t>(rng.UniformInt(1, static_cast<int64_t>(blocks)));
    task.blocks = rng.SampleWithoutReplacement(blocks, k);
    task.demand.resize(orders);
    for (double& d : task.demand) {
      d = rng.Uniform(0.05, 1.0);
    }
    instance.tasks.push_back(std::move(task));
  }
  return instance;
}

void BM_PrivacyKnapsackExact(benchmark::State& state) {
  PkInstance instance =
      RandomInstance(static_cast<size_t>(state.range(0)), 4, 4, 5);
  PkOptions options;
  options.time_limit_seconds = 5.0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(SolvePrivacyKnapsackExact(instance, options));
  }
}
BENCHMARK(BM_PrivacyKnapsackExact)->Arg(20)->Arg(40)->Arg(60)->Unit(benchmark::kMillisecond);

void BM_SubsampledGaussianCurve(benchmark::State& state) {
  AlphaGridPtr grid = AlphaGrid::Default();
  for (auto _ : state) {
    benchmark::DoNotOptimize(SubsampledGaussianCurve(grid, 1.5, 0.01));
  }
}
BENCHMARK(BM_SubsampledGaussianCurve);

}  // namespace
}  // namespace dpack::bench
