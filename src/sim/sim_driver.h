// Online simulation driver: wires a workload (tasks with arrival times) and a block arrival
// process into the event engine and the online batch scheduler, reproducing the paper's
// simulator setup (§5, §6.3): one block arrives per virtual time unit, a scheduling cycle
// runs every T, budget unlocks in 1/N steps, and the run drains after the last arrival until
// all budget is unlocked and a final cycle has run.
//
// Runs can be split at any cycle boundary (checkpoint/recovery, ISSUE 4): stopping a run
// after k cycles captures a ClusterSnapshot, and ResumeOnlineSimulation continues from it —
// replaying only the arrivals after the checkpoint and the remaining cycles at their exact
// original instants — with byte-identical grants and deterministic metrics to the
// uninterrupted run (pinned by tests/orchestrator/recovery_test.cc).

#ifndef SRC_SIM_SIM_DRIVER_H_
#define SRC_SIM_SIM_DRIVER_H_

#include <memory>
#include <optional>
#include <vector>

#include "src/block/block_manager.h"
#include "src/core/metrics.h"
#include "src/core/online_scheduler.h"
#include "src/core/scheduler.h"
#include "src/core/task.h"
#include "src/orchestrator/checkpoint.h"
#include "src/rdp/alpha_grid.h"

namespace dpack {

struct SimConfig {
  AlphaGridPtr grid;                 // Defaults to AlphaGrid::Default() when null.
  double eps_g = 10.0;               // Global DP guarantee per block.
  double delta_g = 1e-7;
  size_t num_blocks = 90;            // Blocks arriving at t = 0, 1, ..., num_blocks - 1.
  double block_interval = 1.0;
  // Explicit block-arrival instants (non-negative, sorted ascending). When non-empty this
  // overrides the fixed-interval process above (num_blocks / block_interval are ignored):
  // scenario workloads with batched cohorts or jittered streams drive the simulation
  // through this schedule (src/workload/scenario.h). A resumed run derives the same
  // schedule, so checkpoint/recovery equivalence holds for generated streams too.
  std::vector<double> block_arrival_times;
  double period = 1.0;               // Scheduling period T.
  int64_t unlock_steps = 50;         // Unlocking denominator N.
  int64_t fair_share_n = 0;          // Fairness denominator; 0 -> unlock_steps.
  double drain_margin = 1.0;         // Extra periods after full unlock before stopping.
  // When > 0, stop scheduling cycles at this virtual time instead of draining until all
  // budget has unlocked. The paper's online runs measure the stream steady state (blocks
  // keep arriving as the run ends), not a fully drained system.
  double horizon_override = 0.0;
  // When > 0, simulate a crash after this many scheduling cycles (clamped to the run's
  // total cycle count): the run stops there and SimResult::snapshot holds the captured
  // cluster state. Pass the snapshot (and the same workload and config) to
  // ResumeOnlineSimulation to continue the run.
  size_t stop_after_cycles = 0;
  // With stop_after_cycles = k: also process every arrival at the (k+1)-th cycle instant
  // and capture the snapshot just *before* that cycle runs (the "mid-submission-drain"
  // kill point — freshly submitted tasks sit in the queue, the cycle that would schedule
  // them has not happened). Resume then executes that cycle first.
  bool stop_mid_drain = false;
  // When set, SimResult::grant_trace records the granted task ids of every cycle this
  // process ran, in grant order — the byte-comparable signal the recovery proofs diff.
  bool record_grant_trace = false;
  // Admission bound for the online driver (OnlineSchedulerConfig::admission_queue_capacity):
  // when > 0, arrivals finding the pending queue at this size are rejected and counted in
  // SimResult::admission_rejected instead of queued. 0 = unbounded (every prior workload).
  size_t admission_queue_capacity = 0;
};

struct SimResult {
  AllocationMetrics metrics;
  size_t blocks_created = 0;
  // Blocks compacted into the retired tier by the end of the run (exhausted with the full
  // budget unlocked; see BlockManager::RetireNewlyExhausted).
  size_t retired_at_end = 0;
  double end_time = 0.0;
  size_t cycles_run = 0;
  size_t pending_at_end = 0;
  // Incremental-engine counters of the run's scheduler (zeros when the scheduler has no
  // incremental engine). The scheduler instance persists across every cycle of the
  // simulation, so the engine's caches survive between batches.
  ScheduleContextStats scheduler_stats;
  // Granted task ids per executed cycle (only when SimConfig::record_grant_trace). A
  // resumed run records only its own cycles; prefix + suffix must equal the uninterrupted
  // run's trace.
  std::vector<std::vector<TaskId>> grant_trace;
  // Arrivals rejected by the admission bound (0 unless admission_queue_capacity > 0).
  uint64_t admission_rejected = 0;
  // The captured cluster state when SimConfig::stop_after_cycles ended the run early.
  std::optional<ClusterSnapshot> snapshot;
};

// The three deterministic schedules RunOnlineSimulation derives from a config — exported so
// other drivers of the same event semantics (checkpoint resume, and the remote client edge,
// which replays this exact cycle structure over a socket; see src/service/client.h) compute
// bit-identical instants from the same config.
//
// Block-arrival instants: the explicit schedule when one is set (validated sorted and
// non-negative), otherwise the fixed-interval process. Both the uninterrupted and the
// resumed run derive the schedule from the same config, so block arrivals stay
// bit-identical across a checkpoint split.
std::vector<double> BlockArrivalSchedule(const SimConfig& config);

// The run's scheduling horizon, a function of the FULL workload (a resumed run must derive
// the same horizon the uninterrupted run used, so it receives the full task vector too).
double SimulationHorizon(const SimConfig& config, const std::vector<Task>& tasks,
                         const std::vector<double>& block_schedule);

// Every cycle instant in [0, horizon], generated by the same repeated addition both the
// uninterrupted and the resumed run perform — bit-identical instants are what make
// UpdateUnlocks (and hence grants) reproducible across a split. `next_after_horizon`
// receives the first accumulated instant past the horizon.
std::vector<double> CycleInstants(const SimConfig& config, double horizon,
                                  double* next_after_horizon);

// Runs one online simulation of `scheduler` over `tasks` (arrival times set by the workload
// generator). Tasks with empty `blocks` and positive `num_recent_blocks` are resolved to the
// most recent blocks at submission, as in the paper's workloads.
SimResult RunOnlineSimulation(std::unique_ptr<Scheduler> scheduler, std::vector<Task> tasks,
                              const SimConfig& config);

// Continues a run from `snapshot` (captured by a stop_after_cycles run with the same
// workload and config): restores the block manager, the pending queue, and the cumulative
// metrics, then replays the arrivals strictly after the checkpoint time and the remaining
// scheduling cycles at their exact original instants. Pass the FULL original workload —
// already-absorbed tasks are filtered by arrival time. The scheduler starts with cold
// engine caches; grants are byte-identical to the uninterrupted run regardless.
SimResult ResumeOnlineSimulation(std::unique_ptr<Scheduler> scheduler,
                                 const ClusterSnapshot& snapshot, std::vector<Task> tasks,
                                 const SimConfig& config);

// Offline convenience: every block present and fully unlocked at t = 0, one scheduling shot.
// Returns the same metrics structure (delays are all zero).
SimResult RunOfflineSchedule(Scheduler& scheduler, std::vector<Task> tasks,
                             const SimConfig& config);

}  // namespace dpack

#endif  // SRC_SIM_SIM_DRIVER_H_
