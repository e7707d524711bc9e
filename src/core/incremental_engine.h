// Incremental scheduling engine (§6.4 Q4 scalability): persists scoring state across
// scheduling cycles instead of recomputing every task's score from scratch. It grants
// *exactly* the same sequence as `RecomputeScheduleBatch` — pinned by
// tests/core/incremental_equivalence_test.cc.
//
// In the online steady state only a few blocks change per cycle (the ones that received
// commits or unlocked more budget), so most cached scores are still exact:
//
//   - Dirty-block detection. `PrivacyBlock::version()` is a monotonic counter bumped on
//     commits, effective unlocks and arrivals. The engine remembers the version it last
//     observed per block and drills into the manager's `BlockVersionTree` groups whose sum
//     advanced, so finding the changed blocks costs O(groups + changed), never O(blocks).
//     New arrivals are detected through the dense id space (block count growth).
//   - Requester columns (DPack). Best alphas depend on the requester set, not just capacity,
//     so each block keeps its requesters as engine state (BlockMembers): in batch order,
//     their ids, weights and copied demand columns, plus each column's smallest demands
//     (SmallestDemands), which is what BestAlphaForBlock reads. The batch keeps a stable
//     relative order (OnlineScheduler appends arrivals and compacts grants and evictions
//     stably), so a walk of the previous batch's ids against this one finds the departures,
//     and the new or re-resolved tasks are the arrivals. Only these events touch the
//     columns, and they mark exactly their blocks dirty. A batch that breaks the order
//     rebuilds the columns and marks dirty the blocks whose requester sequence changed.
//   - Cached scores. Each pending task's score is cached by task id and reused while every
//     input to it is provably unchanged: DPF scores depend only on total capacities (never
//     dirty), Area scores on the available curves of the task's blocks, DPack scores on
//     those curves plus the blocks' cached best-alpha solutions. The early cutoff: a block's
//     rescore stamp is set when it arrives, when its capacity is refreshed, and (DPack) when
//     its recomputed best alpha differs from the cached one — a membership change that leaves
//     the best alpha alone changes no score. A live task is rescored only if one of its own
//     blocks carries this cycle's stamp, a scan of its block list; new tasks and tasks whose
//     block list was re-resolved are always scored.
//   - A lazily-revalidated score heap. Scored entries live in a fully-sorted array (a valid
//     binary max-heap) ordered by HeapEntryBefore, the reference sort's total order. Each
//     cycle's rescored entries are sorted (SortHeapEntries) and merged in; stale entries —
//     superseded generations, granted or evicted tasks — are dropped during the merge, never
//     eagerly. The merge emits the batch indices in heap order, which is the allocation
//     order.
//   - Feasibility memos in the allocation walk. A task whose CANRUN check failed remembers
//     the sum of its blocks' versions at rejection time. Versions only grow, so an unchanged
//     sum proves every one of its blocks unchanged — the task is still infeasible and the
//     per-order filter scan is skipped. Commits made earlier in the same walk bump versions
//     and so re-enable the scan.
//
// Cycle, all on the caller's thread:
//   1. ObserveBatch looks up every task's cache entry, decides which tasks must be scored
//      (new, re-resolved, granted last cycle), checks those tasks' block ids (the others'
//      were checked when they arrived), and for DPack walks the previous batch's ids to
//      record the departures and arrivals.
//   2. SyncBlocks appends arrivals to the snapshot (dirty) and refreshes the blocks the one
//      version-tree drill-down reports changed; for DPack it applies the membership events
//      to the requester columns (dirtying their blocks) and solves the dirty blocks' best
//      alphas. It sets the rescore stamps.
//   3. ScoreTasks runs the reuse-vs-rescore pass against the blocks' rescore stamps, and
//      merges the sorted heap with the rescored entries.
//   4. AllocateWithMemos walks the merged order with feasibility memos and commits grants.
//
// Batches with duplicate task ids fall back to RecomputeScheduleBatch.
//
// The engine lives inside `GreedyScheduler`, whose instance persists across
// `OnlineScheduler::RunCycle` calls — that persistence is what makes the cache pay off.

#ifndef SRC_CORE_INCREMENTAL_ENGINE_H_
#define SRC_CORE_INCREMENTAL_ENGINE_H_

#include <cstdint>
#include <optional>
#include <span>
#include <vector>

#include "src/block/block_manager.h"
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
  // small counters, so it matches no cycle).
  uint64_t last_seen = ~0ULL;
  // Identity of the task's resolved block list, for change detection: the block vector's
  // buffer travels with the task on moves, so an unchanged (pointer, size) pair means an
  // unchanged list under the immutability protocol, and the score pass may trust the cached
  // score unless one of those blocks carries the cycle's rescore stamp. Late resolution
  // reallocates (empty -> non-empty) and is therefore always caught.
  const BlockId* blocks_ptr = nullptr;
  uint32_t blocks_len = 0;
  uint32_t index = 0;  // Position in the current cycle's batch.
  bool granted = false;  // Granted in cycle last_seen: a comeback is scored afresh.
  bool rescore = false;  // This cycle: new, re-resolved or granted before; always scored.
};

// DPack: one block's requesters (the pending tasks naming it) in batch order, as the columns
// BestAlphaForBlock reads: task ids, weights, and a copy of each requester's demand at every
// order the block has not exhausted for good (consumed < total capacity; elsewhere no unlock
// can give it available capacity again), with each column's SmallestDemands. Requesters
// mostly leave from the front (timeouts evict the oldest), so the live members sit at an
// offset in their arrays: a departure from the front moves nothing, and arrivals append.
class BlockMembers {
 public:
  explicit BlockMembers(const PrivacyBlock& block);

  std::span<const TaskId> ids() const { return {ids_.data() + head_, count_}; }
  RequesterColumns columns();
  // Makes room for `additional` more members.
  void Reserve(size_t additional);
  // Inserts `task` as member number `at` (<= ids().size()).
  void Insert(size_t at, const Task& task);
  // Drops the members named in `leaving`, whose ids appear there in member order; the rest
  // keep their order. `at` is scratch.
  void RemoveLeaving(std::vector<size_t>& at);
  // Drops every member, keeping the storage.
  void Clear();
  // Drops the columns of the orders `block` (this block, after a commit) has exhausted.
  void DropExhaustedOrders(const PrivacyBlock& block);

  // This cycle's membership events, in batch order: ids to drop, then batch indices to add.
  std::vector<TaskId> leaving;
  std::vector<size_t> joining;

 private:
  // Moves the live members to the front of arrays of `new_stride` slots.
  void Restride(size_t new_stride);
  // Moves the live members to the front of their arrays.
  void Slide();
  // Offset in values_ of row `row`'s slot `slot`.
  size_t At(size_t row, size_t slot) const { return row * stride_ + slot; }

  std::vector<size_t> orders_;  // Orders not exhausted, ascending.
  std::vector<TaskId> ids_;     // stride_ slots; the members are [head_, head_ + count_).
  // Rows of stride_ slots, parallel to ids_: row 0 holds the weights, row 1 + k the demands
  // at orders_[k].
  std::vector<double> values_;
  std::vector<SmallestDemands> lows_;  // Per demand row, while there is storage.
  size_t head_ = 0;
  size_t count_ = 0;
  size_t stride_ = 0;
};

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

 private:
  struct Slot {
    TaskId id = 0;
    bool used = false;
    TaskCache value;
  };
  size_t Probe(TaskId id) const;
  void Rehash(size_t new_capacity);
  void EraseAt(size_t slot);

  std::vector<Slot> slots_;  // Power-of-two size.
  size_t size_ = 0;
};

class IncrementalEngine {
 public:
  // `eta` is DPack's approximation parameter (> 0).
  IncrementalEngine(GreedyMetric metric, double eta);

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
  // Every task block id must name a block of `blocks` (DPACK_CHECKed when the task is new
  // or its block list changed).
  std::vector<size_t> ScheduleBatch(std::span<const Task> pending, BlockManager& blocks);

  // Drops all cached state; the next cycle rebuilds from scratch.
  void Invalidate();

  GreedyMetric metric() const { return metric_; }
  const ScheduleContextStats& stats() const { return stats_; }

 private:
  // Step 1 of the cycle: cache lookups, rescore decisions, block-id checks for the tasks
  // that need them, and (DPack) the membership events. Returns false, having stopped early,
  // on a repeated task id.
  bool ObserveBatch(std::span<const Task> pending, size_t block_count,
                    uint64_t previous_cycle);
  // Absorbs arrivals and refreshes changed blocks; for DPack, applies the membership events
  // (or rebuilds the requester columns) and solves the dirty blocks' best alphas.
  void SyncBlocks(const BlockManager& blocks, std::span<const Task> pending);
  // Re-registers every task of a batch that broke the previous batch's relative order.
  void RebuildMembers(std::span<const Task> pending);
  // DPack: one task of a batch, and where the member pool lists the blocks whose requester
  // columns hold it (its block list when it joined them).
  struct BatchMember {
    TaskId id = 0;
    uint32_t member_at = 0;
    uint32_t member_len = 0;
  };
  std::span<const BlockId> MemberOf(const BatchMember& member) const {
    return {member_pool_.data() + member.member_at, member.member_len};
  }
  // Records batch task `index`'s block list as the blocks it joins, and as its trusted one.
  void Join(size_t index, const Task& task);
  // Drops the departed tasks' block lists from the member pool once they dominate it.
  void CompactMemberPool();
  // Where batch task `index` goes among `members`, whose tasks are all in this batch.
  size_t MemberPosition(const BlockMembers& members, size_t index) const;
  // The reuse-vs-rescore pass, then the heap merge.
  void ScoreTasks(std::span<const Task> pending);
  // Records block `id` as dirty this cycle, once.
  void MarkDirty(BlockId id) {
    size_t j = static_cast<size_t>(id);
    if (dirty_stamp_[j] != cycle_stamp_) {
      dirty_stamp_[j] = cycle_stamp_;
      dirty_ids_.push_back(id);
    }
  }
  // Merges the heap with the rescored entries, dropping stale ones; fills `order_`.
  void MergeHeap();
  std::vector<size_t> AllocateWithMemos(std::span<const Task> pending, BlockManager& blocks);

  GreedyMetric metric_;
  double eta_;
  ScheduleContextStats stats_;
  uint64_t cycle_stamp_ = 0;  // Incremented per ScheduleBatch; task cache liveness clock.

  // Block-side state, indexed by block id. The snapshot is created on the first cycle (it
  // needs the manager's grid) and then maintained incrementally.
  std::optional<CapacitySnapshot> snapshot_;
  std::vector<uint64_t> last_version_;  // Size doubles as the known-block count.
  // Contiguous version mirror for the allocation walk. Persistent: arrivals append,
  // refreshes overwrite changed entries, walk commits update.
  std::vector<uint64_t> version_now_;
  std::vector<uint64_t> group_seen_;   // Version-tree group sums at the last sync.
  std::vector<uint64_t> dirty_stamp_;  // Per block: cycle stamp when last marked dirty.
  // Per block: cycle stamp when an input of its tasks' scores last changed (arrival, refresh,
  // or a new best alpha). Dirty blocks whose best alpha held keep their older stamp.
  std::vector<uint64_t> rescore_stamp_;
  std::vector<size_t> best_alpha_;     // DPack: cached best order per block.
  std::vector<BlockMembers> members_;  // DPack: per block, its requester columns.
  // This cycle's dirty blocks (capacity or membership), duplicate-free via dirty_stamp_.
  std::vector<BlockId> dirty_ids_;
  // DPack membership events of this cycle, from ObserveBatch: the previous batch's tasks
  // leaving their blocks (departed or re-resolved, in batch order), batch indices of
  // tasks joining theirs (new or re-resolved), and whether the batch kept the previous
  // one's relative order (else the columns are rebuilt). Tasks from `tail_start_` on are
  // all new, so they join at the end of their blocks' columns.
  std::vector<BatchMember> leaving_;
  std::vector<size_t> joining_;
  bool members_ordered_ = true;
  size_t tail_start_ = 0;
  std::vector<BatchMember> prev_batch_;  // DPack: the previous batch, in order.
  std::vector<BatchMember> batch_;       // DPack: this batch.
  // DPack: the batch tasks' member blocks, appended as tasks join and compacted to this
  // batch's (member_refs_ of them) when departed tasks' lists dominate.
  std::vector<BlockId> member_pool_;
  std::vector<BlockId> pool_scratch_;  // The compaction's target, then the next scratch.
  size_t member_refs_ = 0;
  std::vector<size_t> positions_;      // BlockMembers::RemoveLeaving's scratch.

  // Task-side state.
  TaskCacheMap cache_;
  std::vector<HeapEntry> heap_;    // Persistent, fully sorted (live + lazily-stale).
  std::vector<HeapEntry> fresh_;   // This cycle's rescored entries, pre-merge.
  std::vector<HeapEntry> merged_;  // Scratch for the merge.
  std::vector<HeapEntry> sort_scratch_;  // SortHeapEntries' second buffer for fresh_.
  std::vector<size_t> order_;      // Batch indices of heap_'s entries: the allocation order.
  // Cache slot per batch index, this cycle. No slot moves between ObserveBatch and the walk
  // (the cache reserves up front and purges only after the walk).
  std::vector<size_t> slot_of_index_;
  uint64_t next_generation_ = 1;
  bool slots_moved_ = false;  // Set on rehash/purge; entries re-resolve at next merge.
};

}  // namespace dpack

#endif  // SRC_CORE_INCREMENTAL_ENGINE_H_
