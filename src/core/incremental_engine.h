// Incremental scheduling engine (§6.4 Q4 scalability): persists block-side state across
// scheduling cycles instead of rebuilding it from scratch, and scores only the tasks that
// can run. It grants *exactly* the same sequence as `RecomputeScheduleBatch` — pinned by
// tests/core/incremental_equivalence_test.cc.
//
// Cycle, all on the caller's thread:
//   1. ObserveBatch looks up every task's cache entry, finds the new and re-resolved tasks
//      (it checks their block ids and drops their rejection memos), and for DPack walks the
//      previous batch's ids to record the departures and arrivals.
//   2. SyncBlocks appends arrivals to the snapshot (dirty) and refreshes the blocks the one
//      version-tree drill-down reports changed; for DPack it applies the membership events
//      to the requester columns (dirtying their blocks) and solves the dirty blocks' best
//      alphas. Scores read the best alphas, which depend on every requester, feasible or not.
//   3. CollectCandidates makes one pass over the batch in order. A task whose rejection memo
//      holds is settled without a check; any other is checked with CanAccept against its
//      blocks as they stand at the start of the cycle. A rejected task gets a memo; a task
//      every block accepts is scored (ScoreGreedyTask) and becomes a candidate.
//   4. SortHeapEntries orders the candidates by HeapEntryBefore, the reference sort's order.
//   5. The CANRUN walk re-checks each candidate against the commits made earlier in the walk
//      and commits the grants.
//
// Why skipping the infeasible tasks keeps the grants. During a walk a block changes only
// through Commit, which adds a non-negative demand to `consumed` (RdpCurve rejects negative
// and NaN epsilons) and leaves the unlocked capacity alone. IEEE addition is monotone, so if
// `consumed(a) + d(a) <= cap(a) + slack` fails at every order at the start of the cycle, it
// still fails at the task's turn. A task its blocks reject at the start is therefore
// rejected at its turn in the reference order too, and the reference grant sequence is the
// walk, in HeapEntryBefore order, over the tasks feasible at the start.
//
// Block-side state:
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
//
// Task-side state: the rejection memo. A rejected task remembers the first block that
// rejected it and that block's version. Versions only grow and an unchanged version proves
// the block's state bit-identical, so while the version holds the block still rejects the
// task, whatever its other blocks do; the pass skips it without a check. Commits made
// earlier in the same walk bump versions and so re-enable the check. The memo names the
// block holding the task back. New and re-resolved tasks start without one.
//
// Batches with duplicate task ids fall back to RecomputeScheduleBatch.
//
// The engine lives inside `GreedyScheduler`, whose instance persists across
// `OnlineScheduler::RunCycle` calls — that persistence is what makes the state pay off.

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

// Per-task state, keyed by task id.
struct TaskCache {
  // Rejection memo: the first block that rejected the task, and that block's version then.
  BlockId reject_block = kNoMemo;
  uint64_t reject_version = 0;
  // Cycle stamp: live iff == current cycle. ~0 = never pending (fresh entry; stamps are
  // small counters, so it matches no cycle).
  uint64_t last_seen = ~0ULL;
  // Identity of the task's resolved block list, for change detection: the block vector's
  // buffer travels with the task on moves, so an unchanged (pointer, size) pair means an
  // unchanged list under the immutability protocol, and the memo may be trusted. Late
  // resolution reallocates (empty -> non-empty) and is therefore always caught.
  const BlockId* blocks_ptr = nullptr;
  uint32_t blocks_len = 0;
  uint32_t index = 0;  // Position in the current cycle's batch.

  static constexpr BlockId kNoMemo = -1;
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
// path's scoring cost. Slot indices are stable except across Reserve/Purge rehashes; the
// engine records them per cycle, after its Reserve, and purges only after its walk.
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
  size_t capacity() const { return slots_.size(); }
  // Ensures capacity for `additional` more inserts without rehashing, at a load of at most
  // three quarters. Invalidates slot indices if the table grows.
  void Reserve(size_t additional);
  // Once the entries whose last_seen != `cycle` (granted or evicted tasks) reach half the
  // `live` ones, drops them. Invalidates slot indices when it purges.
  void PurgeDead(uint64_t cycle, size_t live);

 private:
  struct Slot {
    TaskId id = 0;
    bool used = false;
    TaskCache value;
  };
  static_assert(sizeof(Slot) <= 64, "a slot should fit a cache line");
  size_t Probe(TaskId id) const;
  void PurgeNotSeen(uint64_t cycle);
  void Rehash(size_t new_capacity);
  void EraseAt(size_t slot);

  std::vector<Slot> slots_;  // Power-of-two size.
  size_t size_ = 0;
};

class IncrementalEngine {
 public:
  // `eta` is DPack's approximation parameter (> 0).
  IncrementalEngine(GreedyMetric metric, double eta);

  // One scheduling cycle: refreshes dirty state, scores the tasks that can run, and
  // allocates in score order, committing grants to `blocks`. Returns indices into `pending` of the
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
  // Step 1 of the cycle: cache lookups, memo resets and block-id checks for the new and
  // re-resolved tasks, and (DPack) the membership events. Returns false, having stopped early,
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
  // Step 3: the feasibility pass. Scores the tasks every block accepts into candidates_, in
  // batch order, and gives the others a memo.
  void CollectCandidates(std::span<const Task> pending, const BlockManager& blocks);
  // True if every block of `task` accepts its demand; otherwise records the first rejecting
  // block and its version as `cached`'s memo.
  bool Accepts(const Task& task, const BlockManager& blocks, TaskCache& cached) const;
  // Records block `id` as dirty this cycle, once.
  void MarkDirty(BlockId id) {
    size_t j = static_cast<size_t>(id);
    if (dirty_stamp_[j] != cycle_stamp_) {
      dirty_stamp_[j] = cycle_stamp_;
      dirty_ids_.push_back(id);
    }
  }
  // Step 5: the CANRUN walk over the sorted candidates.
  std::vector<size_t> AllocateCandidates(std::span<const Task> pending, BlockManager& blocks);

  GreedyMetric metric_;
  double eta_;
  ScheduleContextStats stats_;
  uint64_t cycle_stamp_ = 0;  // Incremented per ScheduleBatch; task cache liveness clock.

  // Block-side state, indexed by block id. The snapshot is created on the first cycle (it
  // needs the manager's grid) and then maintained incrementally.
  std::optional<CapacitySnapshot> snapshot_;
  std::vector<uint64_t> last_version_;  // Size doubles as the known-block count.
  // Contiguous version mirror for the memos. Persistent: arrivals append, refreshes
  // overwrite changed entries, walk commits update.
  std::vector<uint64_t> version_now_;
  std::vector<uint64_t> group_seen_;   // Version-tree group sums at the last sync.
  std::vector<uint64_t> dirty_stamp_;  // Per block: cycle stamp when last marked dirty.
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
  // This cycle's candidates (slot = batch index), then in allocation order. Both buffers
  // persist and hold room for a whole batch, so they grow only with the queue's maximum.
  std::vector<HeapEntry> candidates_;
  std::vector<HeapEntry> sort_scratch_;  // SortHeapEntries' second buffer.
  // Cache slot per batch index, this cycle. No slot moves between ObserveBatch and the walk
  // (the cache reserves up front and purges only after the walk).
  std::vector<size_t> slot_of_index_;
};

}  // namespace dpack

#endif  // SRC_CORE_INCREMENTAL_ENGINE_H_
