// In-process cluster orchestrator reproducing the paper's Kubernetes deployment (§6.4): the
// sim driver's online run (RunOnlineSimulation) with a simulated API server on top.
//
// The orchestrator owns three things; everything else is the sim driver's:
//   - the arrival process: the offline blocks are present and unlocked at t = 0, and online
//     block b arrives at t = b (SimConfig::block_arrival_times, with drain_margin 1);
//   - the store traffic (OnlineRunHooks): each claim costs one state-store round trip
//     (claim creation) before it is submitted, and each cycle (t = 0, T, 2T, ...) costs
//     round trips per cycle and per grant (block list, lease renewal, status updates, budget
//     commits);
//   - the periodic checkpoint, Put into the store every checkpoint_every_cycles cycles.
// There are no threads: grants depend only on the workload and the config, never on timing.
//
// The store charges its simulated latency in real time. The offline pass's scheduler
// runtime is measured in wall-clock seconds and includes that store traffic, which
// dominates — the paper's Q4 observation. Scheduling delay is measured in virtual time and
// excludes scheduler runtime, as in Fig. 8(b).

#ifndef SRC_ORCHESTRATOR_CLUSTER_ORCHESTRATOR_H_
#define SRC_ORCHESTRATOR_CLUSTER_ORCHESTRATOR_H_

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "src/core/metrics.h"
#include "src/core/scheduler.h"
#include "src/core/task.h"
#include "src/orchestrator/checkpoint.h"
#include "src/rdp/alpha_grid.h"

namespace dpack {

struct OrchestratorConfig {
  AlphaGridPtr grid;                 // Defaults to AlphaGrid::Default() when null.
  double eps_g = 10.0;
  double delta_g = 1e-7;
  double period = 5.0;               // Scheduling period T (virtual time units).
  int64_t unlock_steps = 50;         // Unlocking denominator N.
  size_t offline_blocks = 10;        // Blocks present (fully unlocked) at start.
  size_t online_blocks = 20;         // Blocks arriving at t = 1, 2, ..., online_blocks.
  double store_latency_us = 150.0;   // Simulated API-server round-trip latency.
  // When > 0, online runs serialize a full cluster snapshot after every this-many cycles and
  // Put it into the run's SimulatedStateStore under kCheckpointKey — the write costs one
  // round trip per 64 KiB chunk, so checkpoint persistence cost lands in the same Q4
  // overhead accounting as the claim traffic.
  size_t checkpoint_every_cycles = 0;
};

struct OrchestratorRunResult {
  AllocationMetrics metrics;
  uint64_t store_operations = 0;
  size_t cycles = 0;
  // Checkpointing activity of this run (zeros when checkpoint_every_cycles == 0).
  uint64_t checkpoints_taken = 0;
  uint64_t store_bytes_written = 0;
  // The last snapshot persisted during the run, still in its binary wire encoding; empty
  // when no checkpoint was taken. Decode with DecodeSnapshotBinary and hand to
  // ResumeOrchestratorOnline to continue a killed run.
  std::string last_checkpoint;
};

// The store key checkpoints are persisted under (one key, overwritten per checkpoint — the
// latest snapshot is the only one recovery needs, as with a compacted etcd key).
inline constexpr char kCheckpointKey[] = "dpack/checkpoint";

// Offline measurement (Fig. 8(a) methodology): every claim is created in the store, then one
// RunOfflineSchedule pass over all blocks, fully unlocked, runs between the pass's per-cycle
// and per-grant store charges. The metrics hold one cycle runtime, the wall time of the pass
// with that store traffic; every recorded delay is 0.
OrchestratorRunResult RunOrchestratorOfflinePass(Scheduler& scheduler, std::vector<Task> tasks,
                                                 const OrchestratorConfig& config);

// Online run (Fig. 8(b), Tab. 2): RunOnlineSimulation over the orchestrator's arrival
// process, with its store traffic and checkpoints. Cycles run at 0, T, 2T, ... up to
// max(last arrival, online_blocks) + T * (unlock_steps + 1).
OrchestratorRunResult RunOrchestratorOnline(std::unique_ptr<Scheduler> scheduler,
                                            std::vector<Task> tasks,
                                            const OrchestratorConfig& config);

// Crash recovery (§6.4): ResumeOnlineSimulation from a snapshot persisted by an online run
// with checkpoint_every_cycles > 0, with the same store traffic and checkpoint cadence.
// `tasks` must be the full original workload; the sim driver validates the snapshot against
// the config and replays only the later arrivals, so the resumed run's grants, metrics and
// cycle count equal the uninterrupted run's.
OrchestratorRunResult ResumeOrchestratorOnline(std::unique_ptr<Scheduler> scheduler,
                                               const ClusterSnapshot& snapshot,
                                               std::vector<Task> tasks,
                                               const OrchestratorConfig& config);

}  // namespace dpack

#endif  // SRC_ORCHESTRATOR_CLUSTER_ORCHESTRATOR_H_
