// Ablation (not a paper figure; see src/README.md, "Substitutions and deviations"): where
// do DPack's gains come from?
// Compares four orderings through the identical allocation loop:
//   DPF   — inverse dominant share (no block-area, no best-alpha awareness);
//   Area  — Eq. 4 (block-area aware, sums every order);
//   DPack — Eq. 6 (block-area aware at each block's best alpha only);
//   FCFS  — arrival order (no prioritization).
// Run on both microbenchmark regimes: block heterogeneity (where Area ~ DPack, both beat
// DPF — the §3.1 effect) and best-alpha heterogeneity (where DPack beats Area — the §3.2
// effect), plus the online Alibaba-DP mix.

#include <cstdio>

#include "bench/bench_util.h"

namespace dpack::bench {
namespace {

size_t Offline(SchedulerKind kind, const std::vector<Task>& tasks, size_t blocks) {
  SimConfig sim;
  sim.num_blocks = blocks;
  auto scheduler = CreateScheduler(kind);
  return RunOfflineSchedule(*scheduler, tasks, sim).metrics.allocated();
}

void BlockHeterogeneity(Scale scale) {
  MicrobenchmarkConfig config;
  config.num_tasks = static_cast<size_t>(300 * ScaleFactor(scale));
  config.num_blocks = 20;
  config.mu_blocks = 10.0;
  config.sigma_blocks = 3.0;
  config.sigma_alpha = 0.0;
  config.eps_min = 0.1;
  config.seed = 31;
  std::vector<Task> tasks = GenerateMicrobenchmark(SharedPool(), config);
  CsvTable table({"metric", "allocated"});
  for (SchedulerKind kind : {SchedulerKind::kDpack, SchedulerKind::kArea, SchedulerKind::kDpf,
                             SchedulerKind::kFcfs}) {
    table.NewRow().Add(SchedulerKindName(kind)).Add(Offline(kind, tasks, 20));
  }
  table.Print("Ablation 1: block heterogeneity only (sigma_blocks=3, sigma_alpha=0)");
}

void AlphaHeterogeneity(Scale scale) {
  MicrobenchmarkConfig config;
  config.num_tasks = static_cast<size_t>(600 * ScaleFactor(scale));
  config.num_blocks = 1;
  config.mu_blocks = 1.0;
  config.sigma_blocks = 0.0;
  config.sigma_alpha = 6.0;
  config.eps_min = 0.005;
  config.seed = 31;
  std::vector<Task> tasks = GenerateMicrobenchmark(SharedPool(), config);
  CsvTable table({"metric", "allocated"});
  for (SchedulerKind kind : {SchedulerKind::kDpack, SchedulerKind::kArea, SchedulerKind::kDpf,
                             SchedulerKind::kFcfs}) {
    table.NewRow().Add(SchedulerKindName(kind)).Add(Offline(kind, tasks, 1));
  }
  table.Print("Ablation 2: best-alpha heterogeneity only (single block, sigma_alpha=6)");
}

void AlibabaMix(Scale scale) {
  AlibabaConfig config;
  config.num_tasks = static_cast<size_t>(10000 * ScaleFactor(scale));
  config.arrival_span = 60.0;
  config.seed = 31;
  std::vector<Task> tasks = GenerateAlibabaDp(SharedPool(), config);
  CsvTable table({"metric", "allocated"});
  for (SchedulerKind kind : {SchedulerKind::kDpack, SchedulerKind::kArea, SchedulerKind::kDpf,
                             SchedulerKind::kFcfs}) {
    SimConfig sim;
    sim.num_blocks = 60;
    sim.unlock_steps = 50;
    SimResult result = RunOnlineSimulation(CreateScheduler(kind), tasks, sim);
    table.NewRow().Add(SchedulerKindName(kind)).Add(result.metrics.allocated());
  }
  table.Print("Ablation 3: online Alibaba-DP mix (both heterogeneity dimensions)");
}

}  // namespace
}  // namespace dpack::bench

int main(int argc, char** argv) {
  using namespace dpack::bench;
  Scale scale = ParseScale(argc, argv);
  Banner("Ablation: decomposing DPack's efficiency metric", "paper §3.1-3.2 (ablation, not a paper figure)");
  BlockHeterogeneity(scale);
  AlphaHeterogeneity(scale);
  AlibabaMix(scale);
  return 0;
}
