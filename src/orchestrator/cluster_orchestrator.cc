#include "src/orchestrator/cluster_orchestrator.h"

#include <chrono>

#include "src/common/check.h"
#include "src/common/stats.h"
#include "src/core/metrics.h"
#include "src/orchestrator/state_store.h"
#include "src/sim/sim_driver.h"

namespace dpack {

namespace {

// PrivateKube's per-claim store traffic (§6.4), in round trips.
constexpr uint64_t kStoreOpsPerTask = 3;   // Claim read + status update + budget commit.
constexpr uint64_t kStoreOpsPerCycle = 4;  // Block list + lease renewal traffic.

// The orchestrator's arrival process as a sim config: the offline blocks at t = 0, then
// online block b at t = b. drain_margin 1 ends the run T * (N + 1) after the last arrival.
SimConfig SimConfigFor(const OrchestratorConfig& config) {
  DPACK_CHECK(config.offline_blocks + config.online_blocks > 0);
  SimConfig sim;
  sim.grid = config.grid;
  sim.eps_g = config.eps_g;
  sim.delta_g = config.delta_g;
  sim.block_arrival_times.assign(config.offline_blocks, 0.0);
  for (size_t b = 1; b <= config.online_blocks; ++b) {
    sim.block_arrival_times.push_back(static_cast<double>(b));
  }
  sim.period = config.period;
  sim.unlock_steps = config.unlock_steps;
  sim.drain_margin = 1.0;
  return sim;
}

// RunOrchestratorOnline (no snapshot) and ResumeOrchestratorOnline: the sim driver's online
// run with the store charges and the periodic checkpoint hooked in.
OrchestratorRunResult RunOnlineWithStore(std::unique_ptr<Scheduler> scheduler,
                                         const ClusterSnapshot* snapshot,
                                         std::vector<Task> tasks,
                                         const OrchestratorConfig& config) {
  SimulatedStateStore store(config.store_latency_us);
  OrchestratorRunResult result;
  OnlineRunHooks hooks;
  hooks.unlocked_blocks = config.offline_blocks;
  hooks.before_submit = [&] { store.RoundTrip(1); };  // Claim creation.
  hooks.after_cycle = [&](const CycleDone& cycle) {
    store.RoundTrip(kStoreOpsPerCycle + kStoreOpsPerTask * cycle.granted);
    if (config.checkpoint_every_cycles > 0 &&
        cycle.cycles_completed % config.checkpoint_every_cycles == 0) {
      result.last_checkpoint = EncodeSnapshotBinary(cycle.capture());
      store.Put(kCheckpointKey, result.last_checkpoint);
      ++result.checkpoints_taken;
    }
  };
  SimConfig sim = SimConfigFor(config);
  SimResult run = snapshot != nullptr
                      ? ResumeOnlineSimulation(std::move(scheduler), *snapshot,
                                               std::move(tasks), sim, hooks)
                      : RunOnlineSimulation(std::move(scheduler), std::move(tasks), sim, hooks);
  result.metrics = std::move(run.metrics);
  result.cycles = run.cycles_run;
  result.store_operations = store.operations();
  result.store_bytes_written = store.bytes_written();
  return result;
}

}  // namespace

OrchestratorRunResult RunOrchestratorOfflinePass(Scheduler& scheduler, std::vector<Task> tasks,
                                                 const OrchestratorConfig& config) {
  SimConfig sim = SimConfigFor(config);
  SimulatedStateStore store(config.store_latency_us);
  // Client side: claim creation traffic (not charged to scheduler runtime).
  store.RoundTrip(tasks.size());

  // One scheduling pass, timed with its state-store traffic.
  auto start = std::chrono::steady_clock::now();
  store.RoundTrip(kStoreOpsPerCycle);
  SimResult pass = RunOfflineSchedule(scheduler, std::move(tasks), sim);
  store.RoundTrip(kStoreOpsPerTask * pass.metrics.allocated());
  RunningStat runtime;
  runtime.Add(std::chrono::duration<double>(std::chrono::steady_clock::now() - start).count());

  // The pass's metrics with that one sample in place of RunOfflineSchedule's, which times
  // the scheduling call alone.
  AllocationMetrics::State state = pass.metrics.state();
  state.cycle_runtime = runtime.state();
  OrchestratorRunResult result;
  result.metrics = AllocationMetrics::FromState(state);
  result.store_operations = store.operations();
  result.cycles = 1;
  return result;
}

OrchestratorRunResult RunOrchestratorOnline(std::unique_ptr<Scheduler> scheduler,
                                            std::vector<Task> tasks,
                                            const OrchestratorConfig& config) {
  return RunOnlineWithStore(std::move(scheduler), nullptr, std::move(tasks), config);
}

OrchestratorRunResult ResumeOrchestratorOnline(std::unique_ptr<Scheduler> scheduler,
                                               const ClusterSnapshot& snapshot,
                                               std::vector<Task> tasks,
                                               const OrchestratorConfig& config) {
  return RunOnlineWithStore(std::move(scheduler), &snapshot, std::move(tasks), config);
}

}  // namespace dpack
