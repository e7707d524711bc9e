// Sharded incremental scheduling engine (the ROADMAP's "sharded BlockManager" item): the
// multi-core successor of ScheduleContext, partitioning the incremental engine's state
// across N shards and running the per-cycle refresh/rescore work on a worker pool, while
// producing *exactly* the same grant sequence as the single-shard engine (and hence as
// RecomputeScheduleBatch) — pinned by tests/core/incremental_equivalence_test.cc.
//
// Partitioning (see src/block/sharded_block_manager.h for the block side):
//   - Blocks: block g belongs to shard g mod N (round-robin). Each shard owns its blocks'
//     dirty detection, snapshot refreshes, membership signatures, and best-alpha
//     recomputes; all of it writes only shard-owned entries of the shared, id-indexed
//     arrays, so phases need no locks. The partition never feeds the merge order.
//   - Tasks: task i's home shard is id mod N. Each shard owns its home tasks' score cache
//     and score heap — a per-shard ScheduleContext slice — and rescoring reads the shared
//     capacity snapshot that the block phase published (the pool's join is the barrier).
//
// Cycle = four phases:
//   1. (sequential) ShardedBlockManager::Sync absorbs arrivals; new blocks are appended to
//      the shared snapshot and marked dirty.
//   2. (parallel, one item per shard) each shard refreshes changed owned blocks in the
//      snapshot; for DPack it recomputes owned membership signatures and solves the dirty
//      owned blocks' best-alpha subproblems. Shards whose block-side clocks are clean skip
//      the version scan entirely (the per-shard epoch/version invariant).
//   3. (parallel, one item per shard) each shard runs the score pass over its home tasks —
//      the same reuse-vs-rescore decision as ScheduleContext — then merges its sorted heap
//      with the cycle's rescored entries, dropping stale entries at pop time.
//   4. (sequential) a deterministic N-way merge over the per-shard heaps under
//      HeapEntryBefore yields the global allocation order. HeapEntryBefore is a strict
//      total order for unique task ids and every score is computed by the same function on
//      bit-identical inputs as the single-shard engine, so the merged order equals the
//      reference sort regardless of shard count or thread timing. The CANRUN walk with
//      feasibility memos then commits grants, exactly as ScheduleContext's.
//
// Phases 2 and 3 are two fork-join ParallelFor barriers on a worker pool. Phase 2 writes
// only shard-owned entries of the shared id-indexed arrays (snapshot curves, dirty flags,
// last_version_, member signatures, best alphas); phase 3's score pass for shard s may read
// *any* shard's phase-2 state, which the first join publishes. The second join publishes
// all shard state to the sequential tail (merge + walk).
//
// Batches with duplicate task ids fall back to RecomputeScheduleBatch (duplicates land in
// the same home shard, so each shard detects them locally, like the single-shard engine).

#ifndef SRC_CORE_SHARDED_SCHEDULE_CONTEXT_H_
#define SRC_CORE_SHARDED_SCHEDULE_CONTEXT_H_

#include <cstdint>
#include <optional>
#include <span>
#include <vector>

#include "src/block/block_manager.h"
#include "src/block/sharded_block_manager.h"
#include "src/common/worker_pool.h"
#include "src/core/efficiency.h"
#include "src/core/schedule_context.h"
#include "src/core/task.h"

namespace dpack {

class ShardedScheduleContext : public ScheduleEngine {
 public:
  // `eta` is DPack's approximation parameter (> 0); `num_shards` >= 1. The pool spawns
  // num_shards - 1 worker threads (the caller is the remaining executor), independent of the
  // core count, so the engine behaves identically — just timesliced — when oversubscribed.
  ShardedScheduleContext(GreedyMetric metric, double eta, size_t num_shards);

  // Same cycle protocol as ScheduleContext::ScheduleBatch: immutable pending tasks per id
  // between cycles (late block resolution excepted), the same BlockManager every cycle, all
  // block mutation through version-bumping mutators. Call Invalidate() before switching the
  // engine to a different manager.
  std::vector<size_t> ScheduleBatch(std::span<const Task> pending,
                                    BlockManager& blocks) override;

  void Invalidate() override;

  GreedyMetric metric() const override { return metric_; }
  const ScheduleContextStats& stats() const override { return stats_; }

 private:
  // One shard's slice of the engine: the task-side ScheduleContext state for its home tasks
  // plus scratch for its owned blocks' best-alpha subproblems. Counters accumulate into the
  // engine-wide ScheduleContextStats after every cycle.
  struct ShardContext {
    TaskCacheMap cache;
    std::vector<HeapEntry> heap;    // Persistent, fully sorted (live + lazily-stale).
    std::vector<HeapEntry> fresh;   // This cycle's rescored entries, pre-merge.
    std::vector<HeapEntry> merged;  // Scratch for the merge.
    std::vector<size_t> task_indices;  // Batch indices of home tasks, this cycle.
    std::vector<std::vector<size_t>> requesters;  // Per owned block (local index), DPack.
    // This cycle's dirty *owned* blocks (capacity or membership), duplicate-free via the
    // shared dirty_stamp_. Written by the owning shard in phase 2 (arrivals are appended
    // sequentially in phase 1); read by every shard's phase-3 marking pass.
    std::vector<BlockId> dirty_ids;
    // DPack membership bookkeeping for owned blocks (see ScheduleContext): blocks whose
    // signature was folded this cycle, and blocks whose current signature is non-seed.
    std::vector<BlockId> touched_ids;
    std::vector<BlockId> active_ids;
    // Reverse index over *home tasks*: per global block id, the ids of this shard's home
    // tasks requesting it. Only ever touched by the owning task shard.
    std::vector<std::vector<TaskId>> rindex;
    uint64_t next_generation = 1;
    bool slots_moved = false;  // Set on rehash/purge; entries re-resolve at next merge.
    bool duplicate = false;    // Home batch contained a repeated task id this cycle.
    ScheduleContextStats partial;  // This cycle's counters; drained after the cycle.
  };

  size_t HomeShard(TaskId id) const {
    return static_cast<size_t>(static_cast<uint64_t>(id) % num_shards_);
  }

  void BindManager(BlockManager& blocks);
  // Phase 1: absorb arrivals into the partition and the snapshot (sequential).
  void SyncArrivals(BlockManager& blocks);
  // Phase 2 body for one shard: refresh owned dirty blocks; DPack signatures + best alphas.
  void SyncShardBlocks(size_t s, const BlockManager& blocks, std::span<const Task> pending,
                       size_t refresh_limit);
  // Phase 3 body for one shard: score pass over home tasks, then the local heap merge.
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
      shards_[partition_->ShardOf(id)].dirty_ids.push_back(id);
    }
  }
  // One task of the score pass: the reuse-vs-rescore decision, cache update, and fresh-heap
  // append. Returns false when the task's id was already seen this cycle (duplicate batch:
  // the caller must stop and let ScheduleBatch fall back). `i` must be a home task of
  // `shard`; requires a prior cache Reserve covering the cycle's inserts.
  bool ScoreOneTask(ShardContext& shard, std::span<const Task> pending, size_t i,
                    uint64_t previous_cycle);
  void MergeShardHeap(ShardContext& shard);
  double ScoreTask(const Task& task) const;
  // Phase 4: deterministic N-way merge into order_, then the memoized CANRUN walk.
  void MergeOrder();
  std::vector<size_t> AllocateWithMemos(std::span<const Task> pending, BlockManager& blocks);

  GreedyMetric metric_;
  double eta_;
  size_t num_shards_;
  ScheduleContextStats stats_;
  uint64_t cycle_stamp_ = 0;

  WorkerPool pool_;

  // The bound manager and its shard partition; (re)created on first use after Invalidate.
  BlockManager* bound_ = nullptr;
  std::optional<ShardedBlockManager> partition_;

  // Shared block-side state, indexed by global block id. During phase 2 every entry is
  // written only by its owning shard; the pool join publishes it to every reader.
  std::optional<CapacitySnapshot> snapshot_;
  std::vector<uint64_t> last_version_;  // Size doubles as the known-block count.
  // Contiguous version mirror for the allocation walk. Persistent: arrivals append,
  // phase-2 refreshes overwrite changed entries (owner-written), walk commits update.
  std::vector<uint64_t> version_now_;
  std::vector<uint64_t> dirty_stamp_;  // Per block: cycle stamp when last marked dirty.
  std::vector<uint64_t> member_sig_;   // DPack: per-block requester-set signature.
  std::vector<uint64_t> sig_scratch_;  // Per-cycle signature accumulator (lazily seeded).
  std::vector<uint64_t> touched_stamp_;  // Per block: cycle stamp of last signature fold.
  std::vector<size_t> best_alpha_;     // DPack: cached best order per block.

  std::vector<ShardContext> shards_;
  std::vector<size_t> slot_of_index_;  // Home-shard cache slot per batch index, per cycle.
  std::vector<size_t> order_;          // Merged allocation order (batch indices).
  std::vector<size_t> cursor_;         // Per-shard merge cursors (scratch).

};

}  // namespace dpack

#endif  // SRC_CORE_SHARDED_SCHEDULE_CONTEXT_H_
