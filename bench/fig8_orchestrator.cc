// Fig. 8 + Tab. 2 reproduction (Q4): the cluster-orchestrator deployment (our in-process
// Kubernetes substitute; see DESIGN.md).
//   (a) scheduler runtime as a function of submitted tasks in an emulated offline pass —
//       DPack is modestly slower than DPF, and simulated state-store traffic dominates;
//   (b) scheduling-delay CDF in an online run with T = 5 — near-identical across policies;
//   Tab. 2: online efficiency — DPack allocates more tasks than DPF (paper: 1269 vs 1100).
// The online run is event-driven on virtual time (no wall pacing), so Tab. 2 and Fig. 8(b)
// are deterministic: two runs print identical tables. Only the store's simulated latency
// sleeps, which is what Fig. 8(a)'s runtime measures.

#include <cstdio>

#include "bench/bench_util.h"

namespace dpack::bench {
namespace {

std::vector<Task> Workload(size_t num_tasks, double span) {
  AlibabaConfig config;
  config.num_tasks = num_tasks;
  config.arrival_span = span;
  config.seed = 23;
  return GenerateAlibabaDp(SharedPool(), config);
}

OrchestratorConfig BaseConfig() {
  OrchestratorConfig config;
  config.offline_blocks = 10;
  config.online_blocks = 20;
  config.unlock_steps = 30;
  config.store_latency_us = 150.0;
  return config;
}

void OfflineRuntime(Scale scale) {
  double f = ScaleFactor(scale);
  CsvTable table({"submitted", "DPack_runtime_s", "DPF_runtime_s", "DPack_store_ops",
                  "DPF_store_ops"});
  for (size_t base : {1000, 2000, 4000}) {
    size_t n = static_cast<size_t>(static_cast<double>(base) * f);
    std::vector<Task> tasks = Workload(n, 30.0);
    double runtime[2];
    uint64_t ops[2];
    int i = 0;
    for (SchedulerKind kind : {SchedulerKind::kDpack, SchedulerKind::kDpf}) {
      OrchestratorConfig config = BaseConfig();
      config.period = 25.0;  // Large T emulates the offline setting, as in the paper.
      ClusterOrchestrator orchestrator(CreateScheduler(kind), config);
      OrchestratorRunResult result = orchestrator.RunOfflinePass(tasks);
      runtime[i] = result.metrics.total_runtime_seconds();
      ops[i] = result.store_operations;
      ++i;
    }
    table.NewRow().Add(n).Add(runtime[0]).Add(runtime[1]).Add(ops[0]).Add(ops[1]);
  }
  table.Print("Fig. 8(a): offline-pass scheduler runtime (includes simulated store traffic)");
}

void OnlineDelaysAndEfficiency(Scale scale) {
  double f = ScaleFactor(scale);
  size_t n = static_cast<size_t>(4000 * f);
  std::vector<Task> tasks = Workload(n, 20.0);

  CsvTable efficiency({"scheduler", "allocated", "cycles", "median_delay", "p90_delay"});
  CsvTable cdf({"delay", "DPack_cdf", "DPF_cdf"});
  SampleSet delay_sets[2];
  int i = 0;
  for (SchedulerKind kind : {SchedulerKind::kDpack, SchedulerKind::kDpf}) {
    OrchestratorConfig config = BaseConfig();
    config.period = 5.0;
    ClusterOrchestrator orchestrator(CreateScheduler(kind), config);
    OrchestratorRunResult result = orchestrator.RunOnline(tasks);
    const AllocationMetrics& m = result.metrics;
    efficiency.NewRow()
        .Add(SchedulerKindName(kind))
        .Add(m.allocated())
        .Add(result.cycles)
        .Add(m.delays().count() > 0 ? m.delays().median() : 0.0)
        .Add(m.delays().count() > 0 ? m.delays().Quantile(0.9) : 0.0);
    delay_sets[i] = m.delays();
    ++i;
  }
  efficiency.Print("Tab. 2: online efficiency on the orchestrator (T = 5)");

  for (double d : {0.0, 1.0, 2.0, 3.0, 4.0, 5.0, 7.5, 10.0, 15.0, 20.0, 30.0}) {
    cdf.NewRow().Add(d).Add(delay_sets[0].CdfAt(d)).Add(delay_sets[1].CdfAt(d));
  }
  cdf.Print("Fig. 8(b): scheduling-delay CDF (virtual time, excludes scheduler runtime)");
}

}  // namespace
}  // namespace dpack::bench

int main(int argc, char** argv) {
  using namespace dpack::bench;
  Scale scale = ParseScale(argc, argv);
  Banner("Fig. 8 / Tab. 2: orchestrator deployment", "paper §6.4, Q4");
  OfflineRuntime(scale);
  OnlineDelaysAndEfficiency(scale);
  return 0;
}
