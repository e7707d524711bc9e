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
//     New arrivals are detected through the dense id space (block count growth). For DPack,
//     a per-block signature over the ids of the pending tasks requesting the block also marks
//     membership changes dirty (best alphas depend on the requester set, not just capacity).
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
//   1. SyncBlocks appends arrivals to the snapshot (dirty) and refreshes the blocks the one
//      version-tree drill-down reports changed; for DPack it folds the membership signatures
//      and solves the dirty blocks' best alphas. It sets the rescore stamps.
//   2. ScoreTasks runs the reuse-vs-rescore pass against the blocks' rescore stamps, and
//      merges the sorted heap with the rescored entries.
//   3. AllocateWithMemos walks the merged order with feasibility memos and commits grants.
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
  // small counters, so it matches no cycle); 0 = dead (granted).
  uint64_t last_seen = ~0ULL;
  size_t index = 0;          // Position in the current cycle's batch.
  // Identity of the task's resolved block list, for change detection: the block vector's
  // buffer travels with the task on moves, so an unchanged (pointer, size) pair means an
  // unchanged list under the immutability protocol, and the score pass may trust the cached
  // score unless one of those blocks carries the cycle's rescore stamp. Late resolution
  // reallocates (empty -> non-empty) and is therefore always caught.
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
  // Every task block id must name a block of `blocks` (DPACK_CHECKed once per cycle).
  std::vector<size_t> ScheduleBatch(std::span<const Task> pending, BlockManager& blocks);

  // Drops all cached state; the next cycle rebuilds from scratch.
  void Invalidate();

  GreedyMetric metric() const { return metric_; }
  const ScheduleContextStats& stats() const { return stats_; }

 private:
  // Absorbs arrivals and refreshes changed blocks; for DPack, folds the membership
  // signatures and solves the dirty blocks' best alphas.
  void SyncBlocks(const BlockManager& blocks, std::span<const Task> pending);
  // The reuse-vs-rescore pass, then the heap merge. Returns false, having stopped early, on a
  // repeated task id.
  bool ScoreTasks(std::span<const Task> pending, uint64_t previous_cycle);
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
  std::vector<uint64_t> member_sig_;   // DPack: per-block requester-set signature.
  std::vector<uint64_t> sig_scratch_;  // Per-cycle signature accumulator (lazily seeded).
  std::vector<uint64_t> touched_stamp_;  // Per block: cycle stamp of last signature fold.
  std::vector<size_t> best_alpha_;     // DPack: cached best order per block.
  std::vector<std::vector<size_t>> requesters_;  // DPack: per block, its requesters (when dirty).
  // This cycle's dirty blocks (capacity or membership), duplicate-free via dirty_stamp_.
  std::vector<BlockId> dirty_ids_;
  // DPack membership bookkeeping, O(touched) per cycle: blocks whose signature was folded
  // this cycle, and blocks whose current signature is non-seed (the only ones that can go
  // dirty by *losing* all requesters).
  std::vector<BlockId> touched_ids_;
  std::vector<BlockId> active_ids_;

  // Task-side state.
  TaskCacheMap cache_;
  std::vector<HeapEntry> heap_;    // Persistent, fully sorted (live + lazily-stale).
  std::vector<HeapEntry> fresh_;   // This cycle's rescored entries, pre-merge.
  std::vector<HeapEntry> merged_;  // Scratch for the merge.
  std::vector<HeapEntry> sort_scratch_;  // SortHeapEntries' second buffer for fresh_.
  std::vector<size_t> order_;      // Batch indices of heap_'s entries: the allocation order.
  // Cache entry per batch index, this cycle. No slot moves between the score pass and the
  // walk (the cache reserves up front and purges only after the walk).
  std::vector<TaskCache*> cache_of_index_;
  uint64_t next_generation_ = 1;
  bool slots_moved_ = false;  // Set on rehash/purge; entries re-resolve at next merge.
};

}  // namespace dpack

#endif  // SRC_CORE_INCREMENTAL_ENGINE_H_
