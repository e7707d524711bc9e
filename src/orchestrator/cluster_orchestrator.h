// In-process cluster orchestrator reproducing the paper's Kubernetes deployment (§6.4).
//
// Architecture (mirroring PrivateKube's control loop), run on virtual time through the sim
// driver's WalkSchedule — block arrivals, then claim arrivals, then the scheduling cycle of
// each instant:
//   - the offline blocks are present and unlocked at t = 0; online block b arrives at t = b;
//   - each claim arrives at its arrival_time, costs one state-store round trip (claim
//     creation), and is submitted;
//   - a scheduling cycle runs every period T (t = 0, T, 2T, ...): it performs simulated
//     state-store round trips per cycle and per grant (block list, lease renewal, status
//     updates, budget commits), runs the batch scheduling algorithm, and records metrics.
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

#include "src/block/block_manager.h"
#include "src/core/metrics.h"
#include "src/core/online_scheduler.h"
#include "src/core/scheduler.h"
#include "src/core/task.h"
#include "src/orchestrator/checkpoint.h"
#include "src/orchestrator/state_store.h"
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
  uint64_t store_ops_per_task = 3;   // Claim read + status update + budget commit.
  uint64_t store_ops_per_cycle = 4;  // Block list + lease renewal traffic.
  // When > 0, RunOnline/ResumeFrom serialize a full cluster snapshot after every this-many
  // cycles and Put it into the run's SimulatedStateStore under kCheckpointKey — the write
  // costs one round trip per 64 KiB chunk, so checkpoint persistence cost lands in the
  // same Q4 overhead accounting as the claim traffic.
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
  // when no checkpoint was taken. Decode with DecodeSnapshotBinary and hand to ResumeFrom to
  // continue a killed run.
  std::string last_checkpoint;
  // Incremental-engine counters covering exactly this run (zeros when the scheduler does
  // not run on an incremental engine). The engine survives every cycle of the run — and the
  // scheduler survives across runs — so the run-entry snapshot is subtracted to isolate
  // this run's cache behavior.
  ScheduleContextStats scheduler_stats;
};

class ClusterOrchestrator {
 public:
  // The store key checkpoints are persisted under (one key, overwritten per checkpoint —
  // the latest snapshot is the only one recovery needs, as with a compacted etcd key).
  static constexpr const char* kCheckpointKey = "dpack/checkpoint";

  ClusterOrchestrator(std::unique_ptr<Scheduler> scheduler, OrchestratorConfig config);

  // Offline measurement (Fig. 8(a) methodology): all blocks present and unlocked, all of
  // `tasks` submitted up front, one scheduling pass. Returns metrics whose cycle runtime is
  // the wall time of that pass including store traffic.
  OrchestratorRunResult RunOfflinePass(std::vector<Task> tasks);

  // Online run (Fig. 8(b), Tab. 2): processes the workload end to end in virtual time and
  // returns aggregate metrics. Cycles run at 0, T, 2T, ... up to max(last arrival,
  // online_blocks) + T * (unlock_steps + 1). Arrival times must be non-negative; claims
  // with equal arrival times are submitted in vector order.
  OrchestratorRunResult RunOnline(std::vector<Task> tasks);

  // Crash recovery (§6.4): continues a killed online run from a snapshot persisted by a
  // previous RunOnline with checkpoint_every_cycles > 0. Restores the block manager, the
  // pending claims, and the cumulative metrics, then continues at the checkpoint's next
  // cycle instant; `tasks` must be the full original workload — claims whose arrival time
  // is at or before the checkpoint are already in the snapshot (granted or pending), so
  // only later arrivals are replayed. The snapshot must hold exactly the blocks this
  // orchestrator's arrival process has produced by the checkpoint time. The scheduler's
  // engine caches start cold; the restored state's version invariant makes the resumed
  // run's grants, metrics and cycle count equal to the uninterrupted run's.
  OrchestratorRunResult ResumeFrom(const ClusterSnapshot& snapshot, std::vector<Task> tasks);

  // All run entry points lend the scheduler to the run's online driver and take it back
  // (with its incremental caches invalidated — they are bound to the run's block manager)
  // when the run finishes, so an orchestrator can execute any sequence of runs.

  const OrchestratorConfig& config() const { return config_; }

 private:
  // Shared body of RunOnline and ResumeFrom: `snapshot` == nullptr starts fresh.
  OrchestratorRunResult RunOnlineInternal(const ClusterSnapshot* snapshot,
                                          std::vector<Task> tasks);

  OrchestratorConfig config_;
  std::unique_ptr<Scheduler> scheduler_;
};

}  // namespace dpack

#endif  // SRC_ORCHESTRATOR_CLUSTER_ORCHESTRATOR_H_
