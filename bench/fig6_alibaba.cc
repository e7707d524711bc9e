// Fig. 6 reproduction (Q3): online Alibaba-DP efficiency.
//   (a) allocated tasks vs submitted tasks (90 blocks);
//   (b) allocated tasks vs available blocks (fixed submitted count).
// Expected shape: DPack allocates the most tasks at every point, with a 1.3-1.7x (paper)
// gap over DPF that widens with load; FCFS never prioritizes low-demand tasks. See
// src/README.md, "Substitutions and deviations", for the FCFS deviation (our
// skip-infeasible, retry-under-unlocking FCFS is stronger than the paper's).

#include <cstdio>

#include "bench/bench_util.h"

namespace dpack::bench {
namespace {

size_t RunOne(SchedulerKind kind, const std::vector<Task>& tasks, size_t num_blocks) {
  SimConfig sim;
  sim.num_blocks = num_blocks;
  sim.unlock_steps = 50;
  SimResult result = RunOnlineSimulation(CreateScheduler(kind), tasks, sim);
  return result.metrics.allocated();
}

void SweepSubmitted(Scale scale) {
  double f = ScaleFactor(scale);
  const size_t num_blocks = 90;
  CsvTable table({"submitted", "DPack", "DPF", "FCFS", "DPack/DPF"});
  for (size_t base : {5000, 10000, 20000, 40000}) {
    size_t n = static_cast<size_t>(static_cast<double>(base) * f);
    AlibabaConfig config;
    config.num_tasks = n;
    config.arrival_span = static_cast<double>(num_blocks);
    config.seed = 11;
    std::vector<Task> tasks = GenerateAlibabaDp(SharedPool(), config);
    size_t dpack = RunOne(SchedulerKind::kDpack, tasks, num_blocks);
    size_t dpf = RunOne(SchedulerKind::kDpf, tasks, num_blocks);
    size_t fcfs = RunOne(SchedulerKind::kFcfs, tasks, num_blocks);
    table.NewRow().Add(n).Add(dpack).Add(dpf).Add(fcfs).Add(
        static_cast<double>(dpack) / static_cast<double>(dpf));
  }
  table.Print("Fig. 6(a): allocated vs submitted tasks (90 blocks, online)");
}

void SweepBlocks(Scale scale) {
  double f = ScaleFactor(scale);
  size_t n = static_cast<size_t>(15000 * f);
  CsvTable table({"blocks", "DPack", "DPF", "FCFS", "DPack/DPF"});
  for (size_t num_blocks : {30, 60, 90, 120, 180}) {
    AlibabaConfig config;
    config.num_tasks = n;
    config.arrival_span = static_cast<double>(num_blocks);
    config.seed = 13;
    std::vector<Task> tasks = GenerateAlibabaDp(SharedPool(), config);
    size_t dpack = RunOne(SchedulerKind::kDpack, tasks, num_blocks);
    size_t dpf = RunOne(SchedulerKind::kDpf, tasks, num_blocks);
    size_t fcfs = RunOne(SchedulerKind::kFcfs, tasks, num_blocks);
    table.NewRow().Add(num_blocks).Add(dpack).Add(dpf).Add(fcfs).Add(
        static_cast<double>(dpack) / static_cast<double>(dpf));
  }
  table.Print("Fig. 6(b): allocated vs available blocks (fixed submitted count, online)");
}

}  // namespace
}  // namespace dpack::bench

int main(int argc, char** argv) {
  using namespace dpack::bench;
  Scale scale = ParseScale(argc, argv);
  Banner("Fig. 6: online efficiency on Alibaba-DP", "paper §6.3, Q3");
  SweepSubmitted(scale);
  SweepBlocks(scale);
  return 0;
}
