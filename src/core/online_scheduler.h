// Online batch scheduling driver (§3.4): tasks and blocks arrive over virtual time, a batch
// scheduler runs every T time units against the unlocked fraction of block budgets, ungranted
// tasks wait (until their timeout), and unused unlocked budget carries over.
//
// The inner scheduler instance is owned by this driver and persists across RunCycle calls —
// deliberately, because an incremental GreedyScheduler carries an engine
// (IncrementalEngine) whose cached scores and best-alpha solutions only pay off when the
// same engine sees every consecutive cycle. The driver also never mutates a pending task
// between cycles (late block resolution excepted), which is the immutability contract the
// engine's id-keyed cache relies on.

#ifndef SRC_CORE_ONLINE_SCHEDULER_H_
#define SRC_CORE_ONLINE_SCHEDULER_H_

#include <cstdint>
#include <memory>
#include <vector>

#include "src/block/block_manager.h"
#include "src/core/metrics.h"
#include "src/core/scheduler.h"
#include "src/core/task.h"

namespace dpack {

struct OnlineSchedulerConfig {
  // Scheduling period T, in virtual time units (one block arrives per unit in the paper's
  // online experiments).
  double period = 1.0;
  // Unlocking denominator N: each scheduling step unlocks an additional 1/N of capacity.
  int64_t unlock_steps = 50;
  // Fair-share denominator for metrics; defaults to unlock_steps as in §6.3.
  int64_t fair_share_n = 0;
  // Admission control (the grant-service backpressure bound): when > 0, Submit rejects new
  // tasks while the pending queue already holds this many. 0 = unbounded (the library
  // default; the long-running service always sets a bound). Rejected tasks never enter the
  // queue or the metrics — the caller is told to retry/shed, and admission_rejected()
  // counts the rejections.
  size_t admission_queue_capacity = 0;
};

class OnlineScheduler {
 public:
  // `blocks` must outlive this object. Metrics accumulate internally; read via metrics().
  OnlineScheduler(std::unique_ptr<Scheduler> inner, BlockManager* blocks,
                  OnlineSchedulerConfig config);

  // Submits a task at task.arrival_time. If task.blocks is empty, requests the
  // task.num_recent_blocks most recent blocks (resolved now, or at the next cycle if no
  // block has arrived yet). Returns false — and absorbs nothing — when the admission bound
  // (config.admission_queue_capacity) is reached; unbounded configs always return true.
  bool Submit(Task task);

  // Runs one scheduling cycle at virtual time `now`: unlocks budget, evicts timed-out tasks,
  // runs the inner scheduler over the pending batch, and records metrics.
  // Returns the number of tasks granted this cycle.
  size_t RunCycle(double now);

  size_t pending_count() const { return pending_.size(); }
  // The pending queue in arrival (submission) order — read by the checkpoint subsystem.
  const std::vector<Task>& pending() const { return pending_; }
  // Ids of the tasks granted by the most recent RunCycle, in grant order. Cleared and
  // refilled every cycle; used to trace grant sequences for the recovery proofs.
  const std::vector<TaskId>& last_granted() const { return last_granted_; }
  const AllocationMetrics& metrics() const { return metrics_; }
  // Tasks turned away by the admission bound (kept out of AllocationMetrics: the snapshot
  // schema captures cluster state, and a rejected task never became cluster state).
  uint64_t admission_rejected() const { return admission_rejected_; }
  Scheduler& inner() { return *inner_; }
  const OnlineSchedulerConfig& config() const { return config_; }

  // Incremental-engine statistics of the inner scheduler, when it is a GreedyScheduler
  // running on an incremental engine; nullptr otherwise (recompute mode, Optimal, wrappers).
  const ScheduleContextStats* context_stats() const;

  // Returns ownership of the inner scheduler so it can outlive this driver (e.g. across
  // orchestrator runs), invalidating any incremental engine first — its caches are bound to
  // this driver's block manager. The driver must not be used after this call.
  std::unique_ptr<Scheduler> ReleaseInner();

  // Seeds the driver from checkpointed state: replaces the pending queue (in its captured
  // arrival order) and the cumulative metrics. Must run before any Submit/RunCycle on this
  // instance; the block manager passed at construction must hold the matching restored
  // block state (the queue references its block ids).
  void RestoreState(std::vector<Task> pending, AllocationMetrics metrics);

 private:
  void ResolveBlocks(Task& task);

  std::unique_ptr<Scheduler> inner_;
  BlockManager* blocks_;
  OnlineSchedulerConfig config_;
  std::vector<Task> pending_;
  std::vector<TaskId> last_granted_;
  AllocationMetrics metrics_;
  uint64_t admission_rejected_ = 0;
};

}  // namespace dpack

#endif  // SRC_CORE_ONLINE_SCHEDULER_H_
