// Scheduler-worker process logic of the grant service: a curve/task replica maintained from
// the daemon's diff messages, a pure scoring round over it, and the serve loop
// ServiceWorkerMain runs inside each forked worker.
//
// Determinism contract (the service's half of the grant-equivalence invariant): every score
// the worker produces is a pure function of (replica curve bits, the round's batch ids in
// batch order, the requested shard set, the bound metric/eta). The daemon ships curves as
// raw IEEE-754 bits and the worker scores with the very same functions the in-process
// engines call (ScoreGreedyTask, BestAlphaForBlock), so a replica fed the same state
// computes bit-identical scores — whichever worker computes them, and however many times a
// shard is re-requested after a crash. No clocks, no randomness, no unordered iteration
// (std::map only): scripts/dpack_lint.py enforces the same rules here as in src/core.
//
// Tasks are stored once, in slots. Which slot a task lands in depends on the replica's
// history (a freed slot is reused), but a round reads tasks only through its list of slots
// in batch order, so every requester list — and with it every summation order and bit — is
// the same in a long-lived replica and in one cold-started from a snapshot.

#ifndef SRC_SERVICE_WORKER_H_
#define SRC_SERVICE_WORKER_H_

#include <map>
#include <optional>
#include <span>
#include <string>
#include <vector>

#include "src/block/block_manager.h"
#include "src/core/efficiency.h"
#include "src/core/task.h"
#include "src/rdp/alpha_grid.h"
#include "src/service/messages.h"
#include "src/service/transport.h"

namespace dpack {

// The worker-side mirror of the cluster state a scoring round reads: a dense-by-id
// CapacitySnapshot (same type the in-process engines score against) plus the pending-task
// payloads in a slot vector, with an ordered id -> slot map and a free list.
class WorkerReplica {
 public:
  // Bind: fixes the scoring configuration and resets the replica (a respawned worker is
  // re-bound before being re-fed state).
  void ApplyBind(const BindMsg& msg);

  // New blocks, in id order; ids must extend the replica densely (DPACK_CHECKs — the
  // protocol ships upserts in order and never skips).
  void ApplyBlockUpsert(const BlockUpsertMsg& msg);

  // Available-curve refreshes for known blocks.
  void ApplyBlockRefresh(const BlockRefreshMsg& msg);

  // Task payload upserts (new arrivals; re-sent on late block resolution).
  void ApplyTaskUpsert(const TaskUpsertMsg& msg);

  // Cold start from a checkpoint-codec snapshot blob: restores a byte-identical
  // BlockManager with the recovery subsystem's own codec, rebuilds the curve replica from
  // it, and adopts the snapshot's pending queue as the task payloads. Returns false with
  // *error set on a corrupt/mismatched blob.
  bool ApplyState(const StateMsg& msg, std::string* error);

  // Scores one round: resolves `batch_ids` to slots, in batch order (every id must be a
  // known payload), frees the slots not in the batch (granted or evicted tasks never
  // return), and returns entries for the tasks homed to the requested shards, in batch
  // order. Pure: identical replica state + identical request => bit-identical reply.
  ScoreReplyMsg ScoreRound(const ScoreRequestMsg& msg);

  bool bound() const { return bound_; }
  size_t block_count() const { return snapshot_ ? snapshot_->block_count() : 0; }
  size_t task_count() const { return slot_of_.size(); }

 private:
  // Stores `task` in its id's slot, or in a free (or new) one.
  void Upsert(Task task);
  void ClearTasks();

  bool bound_ = false;
  uint32_t num_shards_ = 1;
  GreedyMetric metric_ = GreedyMetric::kDpack;
  double eta_ = 0.05;
  AlphaGridPtr grid_;
  std::optional<CapacitySnapshot> snapshot_;
  // Task payloads. A free slot keeps its stale task until reused; no round lists it.
  std::vector<Task> slots_;
  std::vector<uint64_t> slot_stamp_;  // Round that last listed the slot; kFreeSlot if free.
  std::map<TaskId, size_t> slot_of_;  // Ordered: no hash order anywhere near scoring.
  std::vector<size_t> free_slots_;

  // Per-round scratch (persisted to avoid per-round allocation growth).
  std::vector<size_t> round_slots_;  // The batch, as slots in batch order.
  std::vector<size_t> best_alpha_;
  std::vector<uint64_t> needed_stamp_;
  std::vector<std::vector<size_t>> requesters_;  // Per block: slots, in batch order.
  uint64_t round_stamp_ = 0;
};

// The State message that cold-starts a replica from the daemon's live state: a
// checkpoint-codec snapshot of `blocks` and the `pending` batch, in batch order.
StateMsg CaptureReplicaState(const BlockManager& blocks, std::span<const Task> pending);

// The serve loop: applies daemon messages to a fresh replica until Shutdown (exit 0), ring
// corruption or a protocol violation (exit 2), or a lost daemon (exit 3). Publishes kReady
// after the Bind handshake and kExited before a clean return.
int ServiceWorkerMain(WorkerEndpoint& endpoint);

}  // namespace dpack

#endif  // SRC_SERVICE_WORKER_H_
