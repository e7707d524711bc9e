// Incremental scheduling engine (§6.4 Q4 scalability): persists scoring state across
// scheduling cycles instead of recomputing every task's score from scratch, and splits that
// state over N shards (N = `GreedySchedulerOptions::num_shards`, default 1). It grants
// *exactly* the same sequence as `RecomputeScheduleBatch` at every shard count — pinned by
// tests/core/incremental_equivalence_test.cc.
//
// In the online steady state only a few blocks change per cycle (the ones that received
// commits or unlocked more budget), so most cached scores are still exact:
//
//   - Dirty-block detection. `PrivacyBlock::version()` is a monotonic counter bumped on
//     commits, effective unlocks and arrivals. The engine remembers the version it last
//     observed per block and drills into the manager's `BlockVersionTree` groups whose sum
//     advanced, so finding the changed blocks costs O(groups + changed), never O(blocks).
//     New arrivals are detected through the dense id space (block count growth). For DPack,
//     a per-block signature over the ids of the pending tasks requesting the block also marks
//     membership changes dirty (best alphas depend on the requester set, not just capacity).
//   - Cached scores. Each pending task's score is cached by task id and reused while every
//     input to it is provably unchanged: DPF scores depend only on total capacities (never
//     dirty), Area scores on the available curves of the task's blocks, DPack scores on
//     those curves plus the blocks' cached best-alpha solutions. A per-block reverse index
//     reaches the tasks of the dirty blocks; only they (plus new tasks and tasks whose block
//     list was re-resolved) are rescored.
//   - Lazily-revalidated score heaps. Scored entries live in fully-sorted arrays (which are
//     valid binary max-heaps) ordered by HeapEntryBefore, the reference sort's total order.
//     Each cycle's rescored entries are sorted and merged in; stale entries — superseded
//     generations, granted or evicted tasks — are dropped during the merge, never eagerly.
//   - Feasibility memos in the allocation walk. A task whose CANRUN check failed remembers
//     the sum of its blocks' versions at rejection time. Versions only grow, so an unchanged
//     sum proves every one of its blocks unchanged — the task is still infeasible and the
//     per-order filter scan is skipped. Commits made earlier in the same walk bump versions
//     and so re-enable the scan.
//
// Partitioning. Block g belongs to shard g mod N (round-robin): its owner refreshes its
// snapshot entry, folds its membership signature and solves its best-alpha subproblem,
// writing only owned entries of the shared id-indexed arrays, so phases need no locks. Task
// i's home shard is id mod N: it owns the task's score cache entry and heap entry. The
// partition never feeds the merge order.
//
// Cycle = four phases:
//   1. (sequential) SyncBlocks appends arrivals to the shared snapshot (dirty), then runs the
//      one version-tree drill-down and appends each changed id to its owner shard's list.
//   2. (parallel, one item per shard) each shard refreshes its changed blocks in the
//      snapshot; for DPack it folds its owned membership signatures and solves its dirty
//      blocks' best alphas.
//   3. (parallel, one item per shard) each shard stamps its home tasks stale through its
//      reverse index, runs the reuse-vs-rescore pass over them, and merges its sorted heap
//      with the rescored entries, emitting its home tasks' batch indices in heap order.
//   4. (sequential) an N-way merge of the shard orders under HeapEntryBefore — a strict
//      total order for unique task ids over scores computed from bit-identical inputs — yields
//      the reference sort order regardless of shard count or thread timing; then the CANRUN
//      walk with feasibility memos commits the grants.
//
// Phases 2 and 3 are fork-join ParallelFor barriers on a pool of N − 1 threads plus the
// caller; each join publishes the phase's writes to the next phase. At one shard (the
// default) the pool has no threads and every phase runs inline on the caller, and the
// shard-count selections drop the sharding overhead: no modulo or division, no batch
// partition pass, and the N-way merge is a swap of the single shard's order.
//
// Batches with duplicate task ids fall back to RecomputeScheduleBatch (duplicates land in
// the same home shard, so each shard detects them locally).
//
// The engine lives inside `GreedyScheduler`, whose instance persists across
// `OnlineScheduler::RunCycle` calls — that persistence is what makes the cache pay off.

#ifndef SRC_CORE_SHARDED_SCHEDULE_CONTEXT_H_
#define SRC_CORE_SHARDED_SCHEDULE_CONTEXT_H_

#include <cstdint>
#include <optional>
#include <span>
#include <vector>

#include "src/block/block_manager.h"
#include "src/common/worker_pool.h"
#include "src/core/efficiency.h"
#include "src/core/schedule_context.h"
#include "src/core/task.h"

namespace dpack {

// Cached per-task scoring state, keyed by task id.
struct TaskCache {
  double score = 0.0;
  uint64_t generation = 0;  // Matches the live heap entry for this task.
  // Version sum at last CANRUN rejection; ~0 = no memo.
  uint64_t reject_vsum = ~0ULL;
  // Cycle stamp: live iff == current cycle. ~0 = never pending (fresh entry; stamps are
  // small counters, so it matches no cycle); 0 = dead (granted).
  uint64_t last_seen = ~0ULL;
  // Set to the current cycle stamp by the reverse-index marking pass when one of the
  // task's blocks went dirty this cycle — the O(changed) replacement for scanning the
  // task's block list against a dirty bitmap. 0 (the default) matches no cycle.
  uint64_t stale_stamp = 0;
  size_t index = 0;          // Position in the current cycle's batch.
  // Identity of the task's resolved block list, for change detection: the block vector's
  // buffer travels with the task on moves, so an unchanged (pointer, size) pair means an
  // unchanged list under the immutability protocol. Late resolution reallocates (empty ->
  // non-empty) and is therefore always caught.
  const BlockId* blocks_ptr = nullptr;
  size_t blocks_len = 0;
};

// DPack requester-set signatures: single-multiply sequence mix (splitmix64-style avalanche
// on the value, then a multiply fold). Sequence-sensitive, so a reordering of the same ids —
// which would change the item order fed to the best-alpha knapsacks — also changes the
// signature.
inline constexpr uint64_t kMemberSigSeed = 1469598103934665603ULL;
inline uint64_t MemberSigMix(uint64_t sig, uint64_t value) {
  value *= 0x9E3779B97F4A7C15ULL;
  value ^= value >> 29;
  return (sig ^ value) * 0xBF58476D1CE4E5B9ULL;
}

// Open-addressing map TaskId -> TaskCache. The engine does a couple of lookups per
// pending task per cycle, which makes std::unordered_map's indirections the bottleneck
// for cheap metrics; a flat linear-probe table keeps the overhead below the recompute
// path's scoring cost. Slot indices are stable except across Reserve/Purge rehashes,
// which the engine tracks to lazily re-resolve heap entries.
class TaskCacheMap {
 public:
  static constexpr size_t kNpos = static_cast<size_t>(-1);

  TaskCacheMap();
  size_t Find(TaskId id) const;  // kNpos when absent.
  // Returns the slot for `id`, inserting a default entry if absent. Requires a prior
  // Reserve covering the insert (so slots never move mid-cycle).
  size_t FindOrInsert(TaskId id);
  TaskCache& at(size_t slot) { return slots_[slot].value; }
  const TaskCache& at(size_t slot) const { return slots_[slot].value; }
  size_t size() const { return size_; }
  // Ensures capacity for `additional` more inserts without rehashing. Returns true if the
  // table rehashed (all slot indices invalidated).
  bool Reserve(size_t additional);
  // Drops every entry whose last_seen != `cycle`. Invalidates slot indices.
  void PurgeNotSeen(uint64_t cycle);
  void Clear();

 private:
  struct Slot {
    TaskId id = 0;
    bool used = false;
    TaskCache value;
  };
  size_t Probe(TaskId id) const;
  void Rehash(size_t new_capacity);

  std::vector<Slot> slots_;  // Power-of-two size.
  size_t size_ = 0;
};

class ShardedScheduleContext {
 public:
  // `eta` is DPack's approximation parameter (> 0); `num_shards` >= 1. The pool spawns
  // num_shards - 1 worker threads (the caller is the remaining executor), independent of the
  // core count, so the engine behaves identically — just timesliced — when oversubscribed.
  ShardedScheduleContext(GreedyMetric metric, double eta, size_t num_shards);

  // One scheduling cycle: refreshes dirty state, rescores affected tasks, and allocates in
  // score order, committing grants to `blocks`. Returns indices into `pending` of the
  // granted tasks, in grant order — identical to RecomputeScheduleBatch on the same state.
  //
  // Correct reuse assumes the cycle protocol of OnlineScheduler: between calls, pending
  // tasks are immutable per id (late block resolution excepted — it is detected, because it
  // reallocates the task's block vector), the blocks passed every cycle carry the same
  // version history (the same manager, or a Clone/Restore of it), and all block mutation
  // goes through Commit / SetUnlockedFraction / AddBlock so versions advance. Call
  // Invalidate() if any of this is violated (e.g. switching to an unrelated manager).
  std::vector<size_t> ScheduleBatch(std::span<const Task> pending, BlockManager& blocks);

  // Drops all cached state; the next cycle rebuilds from scratch.
  void Invalidate();

  GreedyMetric metric() const { return metric_; }
  const ScheduleContextStats& stats() const { return stats_; }

 private:
  // One shard's slice of the engine: the score cache and heap of its home tasks, plus the
  // dirty bookkeeping of its owned blocks. Counters accumulate into the engine-wide
  // ScheduleContextStats after every cycle.
  struct ShardContext {
    TaskCacheMap cache;
    std::vector<HeapEntry> heap;    // Persistent, fully sorted (live + lazily-stale).
    std::vector<HeapEntry> fresh;   // This cycle's rescored entries, pre-merge.
    std::vector<HeapEntry> merged;  // Scratch for the merge.
    std::vector<size_t> order;      // Batch indices of `heap`'s entries, in heap order.
    // Batch indices of home tasks, this cycle (unused at one shard: every task is home).
    std::vector<size_t> task_indices;
    // Owned blocks whose version moved since the last cycle (arrivals excluded): written by
    // the sequential drill-down, refreshed by the owner in phase 2.
    std::vector<BlockId> changed;
    // This cycle's dirty *owned* blocks (capacity or membership), duplicate-free via the
    // shared dirty_stamp_. Written by the owning shard in phase 2 (arrivals are appended
    // sequentially in phase 1); read by every shard's phase-3 marking pass.
    std::vector<BlockId> dirty_ids;
    // DPack membership bookkeeping for owned blocks, O(touched) per cycle: blocks whose
    // signature was folded this cycle, and blocks whose current signature is non-seed (the
    // only ones that can go dirty by *losing* all requesters).
    std::vector<BlockId> touched_ids;
    std::vector<BlockId> active_ids;
    // Reverse index over *home tasks*: per global block id, the ids of this shard's home
    // tasks requesting it. Tasks are inserted when (re)scored with a new or re-resolved
    // block list and lazily swap-popped when found dead by the marking pass.
    std::vector<std::vector<TaskId>> rindex;
    uint64_t next_generation = 1;
    bool slots_moved = false;  // Set on rehash/purge; entries re-resolve at next merge.
    bool duplicate = false;    // Home batch contained a repeated task id this cycle.
    ScheduleContextStats partial;  // This cycle's counters; drained after the cycle.
  };

  // A block's owner shard or a task's home shard (BlockId and TaskId are both int64_t): id
  // mod N. At one shard everything is shard 0, with no 64-bit modulo.
  size_t ShardOf(int64_t id) const {
    return num_shards_ == 1 ? 0 : static_cast<size_t>(static_cast<uint64_t>(id) % num_shards_);
  }
  // Number of shard `shard`'s home tasks in a batch of `batch_size`.
  size_t HomeCount(const ShardContext& shard, size_t batch_size) const {
    return num_shards_ == 1 ? batch_size : shard.task_indices.size();
  }

  // Phase 1: absorb arrivals and list the changed blocks per owner shard (sequential).
  void SyncBlocks(const BlockManager& blocks);
  // Phase 2 body for one shard: refresh owned changed blocks; DPack signatures + best alphas.
  void SyncShardBlocks(size_t s, const BlockManager& blocks, std::span<const Task> pending);
  // Phase 3 body for one shard: stale marking and the reuse-vs-rescore pass over its home
  // tasks, then the local heap merge. Stops early (shard.duplicate) on a repeated task id.
  void ScoreShardTasks(size_t s, std::span<const Task> pending, uint64_t previous_cycle);
  // Stamps `shard`'s home tasks stale through its reverse index for every block in
  // `dirty_ids` (one source shard's dirty list). Touches only `shard`'s own cache and
  // rindex, so a task shard may run it against any source shard's list once that list's
  // phase-2 writes are visible (the pool join).
  void MarkStaleShardTasks(ShardContext& shard, std::span<const BlockId> dirty_ids,
                           uint64_t previous_cycle);
  // Records owned block `id` as dirty this cycle on its owning shard's list, once.
  // Phase-2 callers must own `id`'s shard (disjoint writes); phase 1 calls sequentially.
  void MarkShardDirty(BlockId id) {
    size_t j = static_cast<size_t>(id);
    if (dirty_stamp_[j] != cycle_stamp_) {
      dirty_stamp_[j] = cycle_stamp_;
      shards_[ShardOf(id)].dirty_ids.push_back(id);
    }
  }
  // Merges the shard's heap with its rescored entries, dropping stale ones; fills `order`.
  void MergeShardHeap(ShardContext& shard);
  // Phase 4: the N-way merge of the shard orders into order_, then the memoized CANRUN walk.
  void MergeOrder();
  std::vector<size_t> AllocateWithMemos(std::span<const Task> pending, BlockManager& blocks);

  GreedyMetric metric_;
  double eta_;
  size_t num_shards_;
  ScheduleContextStats stats_;
  uint64_t cycle_stamp_ = 0;  // Incremented per ScheduleBatch; task cache liveness clock.

  WorkerPool pool_;

  // Shared block-side state, indexed by global block id. The snapshot is created on the
  // first cycle (it needs the manager's grid) and then maintained incrementally. During
  // phase 2 every entry is written only by its owning shard; the pool join publishes it.
  std::optional<CapacitySnapshot> snapshot_;
  std::vector<uint64_t> last_version_;  // Size doubles as the known-block count.
  // Contiguous version mirror for the allocation walk. Persistent: arrivals append,
  // phase-2 refreshes overwrite changed entries (owner-written), walk commits update.
  std::vector<uint64_t> version_now_;
  std::vector<uint64_t> group_seen_;   // Version-tree group sums at the last sync.
  std::vector<uint64_t> dirty_stamp_;  // Per block: cycle stamp when last marked dirty.
  std::vector<uint64_t> member_sig_;   // DPack: per-block requester-set signature.
  std::vector<uint64_t> sig_scratch_;  // Per-cycle signature accumulator (lazily seeded).
  std::vector<uint64_t> touched_stamp_;  // Per block: cycle stamp of last signature fold.
  std::vector<size_t> best_alpha_;     // DPack: cached best order per block.
  std::vector<std::vector<size_t>> requesters_;  // DPack: per block, its requesters (when dirty).

  std::vector<ShardContext> shards_;
  // Home-shard cache entry per batch index, this cycle. No slot moves between the score
  // pass and the walk (caches reserve up front and purge only after the walk).
  std::vector<TaskCache*> cache_of_index_;
  std::vector<size_t> order_;   // Merged allocation order (batch indices).
  std::vector<size_t> cursor_;  // Per-shard merge cursors (scratch).
};

}  // namespace dpack

#endif  // SRC_CORE_SHARDED_SCHEDULE_CONTEXT_H_
