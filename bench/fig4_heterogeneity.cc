// Fig. 4 reproduction (Q1): offline microbenchmark efficiency as workload heterogeneity
// grows, for DPack, DPF, and the exact Optimal privacy-knapsack solver.
//   (a) sweep sigma_blocks with mu_blocks = 10, sigma_alpha = 0, eps_min = 0.1;
//   (b) sweep sigma_alpha with all tasks on one block, eps_min = 0.005.
// Expected shape: all three comparable at zero heterogeneity; DPack tracks Optimal closely
// (paper: within 23%) and pulls away from DPF as either knob grows (paper: up to 161% (a)
// and 67% (b)).

#include <cstdio>
#include <limits>
#include <memory>
#include <string>

#include "bench/bench_util.h"

namespace dpack::bench {
namespace {

// Runs `kind` offline. The Optimal search has no wall clock here, so Fig. 4 never depends on
// the host's speed: it stops only at PkOptions::max_nodes. `proof` says whether it proved its
// answer within that node budget.
size_t RunScheduler(SchedulerKind kind, const std::vector<Task>& tasks, size_t num_blocks,
                    std::string* proof = nullptr) {
  SimConfig sim;
  sim.num_blocks = num_blocks;
  sim.eps_g = kEpsG;
  sim.delta_g = kDeltaG;
  PkOptions options;
  options.time_limit_seconds = std::numeric_limits<double>::infinity();
  std::unique_ptr<Scheduler> scheduler = CreateScheduler(kind, options);
  SimResult result = RunOfflineSchedule(*scheduler, tasks, sim);
  if (proof != nullptr) {
    auto* optimal = dynamic_cast<OptimalScheduler*>(scheduler.get());
    bool proven = optimal == nullptr || optimal->last_solve_optimal();
    *proof = proven ? "yes" : "no (node budget)";
  }
  return result.metrics.allocated();
}

void SweepBlocks(Scale scale) {
  double f = ScaleFactor(scale);
  size_t num_tasks = static_cast<size_t>(500 * f);
  size_t num_blocks = 30;

  CsvTable table({"sigma_blocks", "Optimal", "DPack", "DPF", "optimal_proven"});
  for (double sigma : {0.0, 0.5, 1.0, 2.0, 3.0}) {
    MicrobenchmarkConfig config;
    config.num_tasks = num_tasks;
    config.num_blocks = num_blocks;
    config.mu_blocks = 10.0;
    config.sigma_blocks = sigma;
    config.sigma_alpha = 0.0;
    config.eps_min = 0.1;
    config.seed = 42;
    std::vector<Task> tasks = GenerateMicrobenchmark(SharedPool(), config);

    std::string proof;
    size_t optimal = RunScheduler(SchedulerKind::kOptimal, tasks, num_blocks, &proof);
    size_t dpack = RunScheduler(SchedulerKind::kDpack, tasks, num_blocks);
    size_t dpf = RunScheduler(SchedulerKind::kDpf, tasks, num_blocks);
    table.NewRow().Add(sigma).Add(optimal).Add(dpack).Add(dpf).Add(proof);
  }
  table.Print("Fig. 4(a): allocated tasks vs sigma_blocks (mu_blocks=10, eps_min=0.1)");
}

void SweepAlpha(Scale scale) {
  double f = ScaleFactor(scale);
  size_t num_tasks = static_cast<size_t>(600 * f);

  CsvTable table({"sigma_alpha", "Optimal", "DPack", "DPF"});
  for (double sigma : {0.0, 1.0, 2.0, 4.0, 6.0, 8.0}) {
    MicrobenchmarkConfig config;
    config.num_tasks = num_tasks;
    config.num_blocks = 1;
    config.mu_blocks = 1.0;
    config.sigma_blocks = 0.0;
    config.sigma_alpha = sigma;
    config.eps_min = 0.005;
    config.seed = 42;
    std::vector<Task> tasks = GenerateMicrobenchmark(SharedPool(), config);

    size_t optimal = RunScheduler(SchedulerKind::kOptimal, tasks, 1);
    size_t dpack = RunScheduler(SchedulerKind::kDpack, tasks, 1);
    size_t dpf = RunScheduler(SchedulerKind::kDpf, tasks, 1);
    table.NewRow().Add(sigma).Add(optimal).Add(dpack).Add(dpf);
  }
  table.Print("Fig. 4(b): allocated tasks vs sigma_alpha (single block, eps_min=0.005)");
}

}  // namespace
}  // namespace dpack::bench

int main(int argc, char** argv) {
  using namespace dpack::bench;
  Scale scale = ParseScale(argc, argv);
  Banner("Fig. 4: DPack vs DPF vs Optimal under variable heterogeneity", "paper §6.2, Q1");
  SweepBlocks(scale);
  SweepAlpha(scale);
  return 0;
}
