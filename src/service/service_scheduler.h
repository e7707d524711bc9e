// The multi-process scheduling engine: a daemon-side Scheduler that farms each cycle's
// scoring out to crash-isolated worker processes over the shared-memory transport and
// merges their replies into the exact grant sequence of the in-process engines.
//
// Grant-equivalence argument (pinned by tests/service/grant_service_test.cc and the crash
// matrix in tests/service/service_recovery_test.cc):
//   1. Workers score with the same pure functions the in-process engines call
//      (ScoreGreedyTask, BestAlphaForBlock) against replica curves shipped as raw IEEE-754
//      bits — so every (task, score) pair is bit-identical to what the daemon would have
//      computed itself, whichever worker computes it and however often it is recomputed.
//   2. The daemon merges all reply entries under HeapEntryBefore (score desc, arrival asc,
//      id asc) — the same strict total order as the reference sort — and walks
//      AllocateInOrder, the one shared CANRUN loop. Same scores + same total order + same
//      walk => byte-identical grants. FCFS ships as uniform zero scores, which collapses
//      the merge order to exactly FcfsOrder.
//   3. Crash recovery re-requests a dead worker's outstanding shards — from survivors
//      (kReassign) or from a respawned, checkpoint-restored replacement (kRespawn) — and by
//      (1) the recomputed entries are bit-identical to what the dead worker would have
//      sent. Block state cannot drift mid-round: the daemon mutates blocks only in
//      AllocateInOrder, after every reply is in, so the state a recovering worker restores
//      equals the state the round was broadcast against.
//
// Death detection is two-pronged (waitpid for corpses, a shared heartbeat for hangs), and
// every wait is an iteration budget — no clock reads anywhere on the scheduling path
// (scripts/dpack_lint.py enforces the same nondeterminism rules here as in src/core). A
// reply wait sleeps on the transport's reply doorbell, so it ends when a worker answers,
// and at the latest after poll_sleep_us.

#ifndef SRC_SERVICE_SERVICE_SCHEDULER_H_
#define SRC_SERVICE_SERVICE_SCHEDULER_H_

#include <cstdint>
#include <map>
#include <span>
#include <utility>
#include <vector>

#include "src/core/scheduler.h"
#include "src/service/messages.h"
#include "src/service/transport.h"
#include "src/service/worker.h"

namespace dpack {

// What the daemon does about a dead worker.
enum class ServiceRecovery {
  // Permanently reassign the dead worker's shards to the survivors (ascending round-robin)
  // and re-request any outstanding scores from them. The slot stays dead.
  kReassign,
  // Fork a replacement into the same slot: reset its rings (the daemon owns both ends of a
  // dead worker's rings, so stale in-flight frames are discarded, never double-applied),
  // re-bind, replay state through the checkpoint codec, and re-request.
  kRespawn,
};

struct ServiceConfig {
  size_t num_workers = 2;
  // Task-home shard count; 0 = num_workers. Fixed for the service lifetime so that shard
  // reassignment moves whole shards between workers without re-homing any task.
  size_t num_shards = 0;
  double eta = 0.05;  // DPack approximation parameter (kDpack only).
  ServiceRecovery recovery = ServiceRecovery::kReassign;
  // Transport tuning (see TransportConfig). poll_sleep_us is the longest single wait (a
  // wait ends early when its message arrives); a worker whose heartbeat stays flat across
  // stall_budget waits — at most stall_budget * poll_sleep_us — is declared hung.
  size_t ring_bytes = 1 << 20;
  unsigned int poll_sleep_us = 50;
  uint64_t stall_budget = 40000;
  // Fault injection for the crash suites: in round `kill_at_round` (1-based; 0 = never),
  // after the diffs and before the score requests, SIGKILL worker `kill_worker` directly by
  // pid and wait for it to exit without reaping it — bypassing the transport bookkeeping, so
  // the daemon's own detection path (waitpid + heartbeat) is what finds the corpse. The
  // victim's request is still sent and re-routed, and it never answers, so the counters do
  // not depend on timing. Fires once.
  uint64_t kill_at_round = 0;
  size_t kill_worker = 0;
  // When set, the final counter values are copied here at destruction (the sim driver owns
  // the scheduler through a unique_ptr it destroys before reporting).
  ServiceCounters* counters_sink = nullptr;
};

// The daemon's block diff: each known block's version as last shipped, and the version-tree
// group sums at that time. Diff appends newborn blocks to the upserts and blocks whose
// version moved to the refreshes, both in id order, in O(groups + changed + new): it drills
// down the BlockVersionTree instead of reading every block's version.
class BlockDiff {
 public:
  void Diff(const BlockManager& blocks, BlockUpsertMsg* upserts, BlockRefreshMsg* refreshes);

 private:
  std::vector<uint64_t> last_version_;
  std::vector<uint64_t> group_seen_;
};

class ServiceScheduler : public Scheduler {
 public:
  ServiceScheduler(GreedyMetric metric, ServiceConfig config = {});
  ~ServiceScheduler() override;

  std::string name() const override;

  // One distributed scheduling cycle. The worker fleet starts lazily on the first call
  // (the grid travels in the Bind message and comes from `blocks`). Batches with duplicate
  // task ids fall back to the recompute reference, exactly like the incremental engines.
  std::vector<size_t> ScheduleBatch(std::span<const Task> pending,
                                    BlockManager& blocks) override;

  // Clean fleet shutdown (also run by the destructor).
  void Shutdown();

  GreedyMetric metric() const { return metric_; }
  size_t num_shards() const { return num_shards_; }
  ServiceCounters& counters() { return transport_.counters(); }
  const ServiceCounters& counters() const { return transport_.counters(); }
  // Test access: pids for external kill injection, liveness, heartbeat inspection.
  ServiceTransport& transport() { return transport_; }

 private:
  void EnsureStarted(const BlockManager& blocks);
  void BindWorker(size_t w, const BlockManager& blocks);
  // Blocks until worker w's Hello arrives (budgeted; a worker dying mid-handshake is fatal).
  void AwaitHello(size_t w);
  // Ships the block/task diffs since the previous round to every live worker: changed
  // blocks are found in O(groups + changed) down the version tree, and each message is
  // encoded once and pushed as the same frame to every worker.
  void BroadcastDiffs(std::span<const Task> pending, const BlockManager& blocks);
  // Sends a score request for `shards` to worker w, registering it as outstanding first so
  // a send-time death hands it to recovery. Never call with empty `shards`.
  void SendScoreRequest(size_t w, std::vector<uint32_t> shards);
  // Handles one dead worker (slot already marked dead): reassign or respawn, re-requesting
  // whatever was outstanding. Requires round state (batch ids, pending, blocks) to be set.
  void RecoverWorker(size_t w);
  // Drains score replies until no request is outstanding, detecting deaths (waitpid) and
  // hangs (heartbeat stall over the iteration budget) between waits on the reply bell.
  void CollectReplies();

  GreedyMetric metric_;
  ServiceConfig config_;
  size_t num_shards_ = 0;
  ServiceTransport transport_;
  bool kill_fired_ = false;

  // Diff bookkeeping (versions recorded at broadcast time, before the round's commits, so
  // allocation-phase changes are shipped at the next round).
  BlockDiff block_diff_;
  std::map<TaskId, size_t> sent_tasks_;  // id -> block-list length at last upsert.

  // Round state.
  uint64_t round_ = 0;
  std::vector<int64_t> batch_ids_;
  // (id, batch index), sorted by id: the duplicate check, the diff purge and the merge
  // index all read this one sort.
  std::vector<std::pair<TaskId, size_t>> id_index_;
  std::span<const Task> pending_;  // Valid during ScheduleBatch only.
  BlockManager* blocks_ = nullptr;  // Valid during ScheduleBatch only.
  std::vector<size_t> owner_of_shard_;
  // Outstanding score requests per worker: the shard set of each unanswered request, FIFO
  // (rings preserve order, so replies match front-first).
  std::vector<std::vector<std::vector<uint32_t>>> outstanding_;
  std::vector<bool> dead_handled_;  // Recovery ran for this (still-dead) slot.
  std::vector<ScoreReplyMsg::Entry> entries_;
};

}  // namespace dpack

#endif  // SRC_SERVICE_SERVICE_SCHEDULER_H_
