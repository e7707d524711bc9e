// Incremental scheduling engine (§6.4 Q4 scalability): persists scoring state across
// scheduling cycles instead of recomputing every task's score from scratch.
//
// The recompute path (`RecomputeScheduleBatch`, the original GreedyScheduler behavior) costs
// O(pending × blocks × orders) per cycle — including DPack's per-(block, order) knapsack
// subproblems — even when almost nothing changed between cycles. In the online steady state
// only a few blocks change per cycle (the ones that received commits or unlocked more
// budget), so most cached scores are still exact. `ScheduleContext` exploits this:
//
//   - Dirty-block detection. `PrivacyBlock::version()` and `BlockManager::epoch()` are
//     monotonic counters bumped on commits, effective unlocks, and block arrivals. The
//     context remembers the last version it observed per block; a changed version marks the
//     block dirty and refreshes its entry in an incrementally-maintained CapacitySnapshot.
//     New arrivals are detected through the dense id space (block count growth); the epoch
//     is the coarse manager-level change signal for external consumers.
//     For DPack, a per-block signature over the ids of the pending tasks requesting the
//     block additionally marks membership changes dirty (best alphas depend on the
//     requester set, not just capacity).
//   - Cached scores. Each pending task's score is cached by task id and reused while every
//     input to it is provably unchanged: DPF scores depend only on total capacities (never
//     dirty), Area scores on the available curves of the task's blocks, DPack scores on
//     those curves plus the blocks' cached best-alpha solutions. Only tasks touching dirty
//     blocks (plus new tasks and tasks whose block list was re-resolved) are rescored.
//   - Lazily-revalidated score heap. Scored entries live in a priority structure ordered
//     exactly like the recompute path's sort (score desc, arrival asc, id asc). Because
//     every cycle pops the entire structure (the CANRUN walk visits every pending task), it
//     is kept in fully-sorted array form — which is itself a valid binary max-heap — and
//     each cycle's freshly-rescored entries are sorted and merged in. Stale entries —
//     superseded generations, granted or evicted tasks — are detected and dropped at pop
//     time during the merge, never eagerly.
//   - Feasibility memos in the allocation walk. A task whose CANRUN check failed remembers
//     the sum of its blocks' versions at rejection time. Versions are monotone
//     non-decreasing, so an unchanged sum proves every one of its blocks is unchanged —
//     the task is still infeasible and the per-order filter scan is skipped. Commits made
//     earlier in the same walk bump versions and so re-enable the scan, preserving exact
//     recompute-path semantics.
//
// Equivalence guarantee: for a batch with unique task ids the engine grants exactly the
// same task set as `RecomputeScheduleBatch` (see tests/core/incremental_equivalence_test.cc).
// Scores are computed by the same functions on bit-identical inputs, and the pop order is a
// merge of sorted runs under the same total order as the reference sort. Batches with
// duplicate ids fall back to the recompute path (the tie-broken sort is not reproducible
// from id-keyed caches).
//
// The engine lives inside `GreedyScheduler`, whose instance persists across
// `OnlineScheduler::RunCycle` calls — that persistence is what makes the cache pay off.

#ifndef SRC_CORE_SCHEDULE_CONTEXT_H_
#define SRC_CORE_SCHEDULE_CONTEXT_H_

#include <cstdint>
#include <functional>
#include <optional>
#include <span>
#include <vector>

#include "src/block/block_manager.h"
#include "src/core/efficiency.h"
#include "src/core/task.h"

namespace dpack {

// Greedy allocation metrics shared by DPF / area / DPack / FCFS (§3).
enum class GreedyMetric {
  kDpf,    // Inverse dominant share (fairness-oriented, §3.1).
  kArea,   // Eq. 4: all-order demand area (block-aware, not best-alpha-aware).
  kDpack,  // Eq. 6: demand at each block's best alpha (Alg. 1).
  kFcfs,   // Arrival order.
};

// Grants tasks in `order` whose demands all requested blocks accept, committing as it goes —
// the CANRUN loop of Alg. 1. Infeasible tasks are skipped, never block the later ones: every
// policy, including FCFS, backfills past tasks whose filters reject (which is why FCFS does
// not prioritize low-demand tasks under contention, §6.3). Tasks with an unresolved (empty)
// block list are skipped. Shared by the recompute and incremental paths (the incremental
// path layers feasibility memos on the same walk).
std::vector<size_t> AllocateInOrder(std::span<const Task> pending, BlockManager& blocks,
                                    std::span<const size_t> order);

// Reference recompute-everything scheduling pass: snapshot every block, score every pending
// task, sort, allocate. This is the pre-incremental `GreedyScheduler::ScheduleBatch`; the
// differential tests and benchmarks use it as the baseline, and `ScheduleContext` falls back
// to it when a batch has duplicate task ids.
std::vector<size_t> RecomputeScheduleBatch(GreedyMetric metric, double eta,
                                           std::span<const Task> pending,
                                           BlockManager& blocks);

// Counters describing how much work the engine reused vs redid. Monotonic over the context's
// lifetime. A sharded engine (ShardedScheduleContext) aggregates its per-shard counters into
// this struct, so consumers read one summary regardless of the shard count.
struct ScheduleContextStats {
  uint64_t cycles = 0;                 // ScheduleBatch calls (non-empty batches).
  uint64_t tasks_rescored = 0;         // Scores computed.
  uint64_t tasks_reused = 0;           // Scores served from cache.
  uint64_t blocks_refreshed = 0;       // Snapshot entries refreshed (version changes).
  uint64_t best_alpha_recomputes = 0;  // Per-block best-alpha subproblems solved.
  uint64_t full_recomputes = 0;        // Fallbacks to RecomputeScheduleBatch.
  // Heap-merge buffer growths (MergeScoreHeap scratch / the sharded N-way merge output).
  // The merge buffers persist across cycles, so steady-state cycles perform zero merge
  // allocations — pinned by tests and gated at zero in bench/baseline.json.
  uint64_t merge_allocs = 0;
  uint64_t shards = 1;                 // Shard count of the engine that produced these stats.

  // Per-shard counters are summed into the run-wide totals above.
  void Accumulate(const ScheduleContextStats& other) {
    tasks_rescored += other.tasks_rescored;
    tasks_reused += other.tasks_reused;
    blocks_refreshed += other.blocks_refreshed;
    best_alpha_recomputes += other.best_alpha_recomputes;
    merge_allocs += other.merge_allocs;
  }

  // Counters are monotonic over an engine's lifetime; subtracting an earlier snapshot
  // isolates one run's (or one timed loop's) work. `shards` is carried over, not
  // subtracted — it identifies the engine, it is not a counter. The single definition all
  // delta consumers (orchestrator results, bench reports) must share, so a future counter
  // cannot be forgotten in one of them.
  ScheduleContextStats Delta(const ScheduleContextStats& before) const {
    ScheduleContextStats delta = *this;
    delta.cycles -= before.cycles;
    delta.tasks_rescored -= before.tasks_rescored;
    delta.tasks_reused -= before.tasks_reused;
    delta.blocks_refreshed -= before.blocks_refreshed;
    delta.best_alpha_recomputes -= before.best_alpha_recomputes;
    delta.full_recomputes -= before.full_recomputes;
    delta.merge_allocs -= before.merge_allocs;
    return delta;
  }
};
// A new field must be added to Delta (and to Accumulate if it is a per-shard counter) and
// to tests/core/schedule_context_stats_test.cc; this assert fails the build until the
// test's field list is updated with it.
static_assert(sizeof(ScheduleContextStats) == 8 * sizeof(uint64_t),
              "ScheduleContextStats changed: update Delta/Accumulate and their test");

// --- Engine internals shared by the single-shard and sharded engines -----------------------

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

// One scored entry of the lazily-revalidated score heap.
struct HeapEntry {
  double score = 0.0;
  double arrival = 0.0;
  TaskId id = 0;
  uint64_t generation = 0;
  size_t slot = 0;  // Cache slot index; revalidated via Find when slots have moved.
};

// True if `a` precedes `b` in allocation order (score desc, arrival asc, id asc) — exactly
// the recompute path's sort order. A strict total order for unique task ids, which is what
// makes the sharded engine's N-way heap merge deterministic.
bool HeapEntryBefore(const HeapEntry& a, const HeapEntry& b);

// DPack requester-set signatures: single-multiply sequence mix (splitmix64-style avalanche
// on the value, then a multiply fold). Sequence-sensitive, so a reordering of the same ids —
// which would change the item order fed to the best-alpha knapsacks — also changes the
// signature. Shared by the engines so per-block signature streams are comparable.
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
// which the engines track to lazily re-resolve heap entries.
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

// The per-cycle engine steps shared verbatim by ScheduleContext and
// ShardedScheduleContext. Keeping these as single definitions is what makes the two
// engines' grant sequences identical by construction: any change to the reuse, memo,
// ordering, or tolerance rules lands in both at once.

// Scores one task under `metric` against `snapshot` (and `best_alpha` for DPack). FCFS
// never scores (DPACK_CHECKs).
double ScoreGreedyTask(GreedyMetric metric, const Task& task, const CapacitySnapshot& snapshot,
                       std::span<const size_t> best_alpha);

// The score pass's reuse-vs-rescore decision for one task: a cache entry is only
// trustworthy if the task was pending in the immediately preceding cycle (last_seen) with
// an unchanged block list (the vector buffer travels with the task on moves; reallocation
// on late resolution changes the pointer), and — for the capacity-aware metrics — the
// reverse-index marking pass did not stamp it stale this cycle (DPF scores depend only on
// total capacities, which never change for a fixed block list, so DPF ignores dirtiness).
// Sets `needs_index` when the entry is new or re-resolved — the caller must (re)insert the
// task into the per-block reverse index so future marking passes reach it — and clears the
// feasibility memo in that case.
bool ShouldRescore(TaskCache& cached, const Task& task, GreedyMetric metric,
                   uint64_t previous_cycle, uint64_t cycle_stamp, bool& needs_index);

// Merges `heap` (persistent, fully sorted) with `fresh` (this cycle's rescored entries)
// under HeapEntryBefore — exactly the reference sort's total order — dropping stale
// entries (superseded generations, granted or evicted tasks) at pop time; when
// `slots_moved`, entries re-resolve their cache slot via Find. The merged live entries
// replace `heap` (via `scratch`), `fresh` is cleared, `slots_moved` reset. When
// `order_out` is non-null, each surviving entry's batch index is appended in merge order.
// `merge_allocs` is incremented when the merge had to grow its output buffer — the
// ping-pong scratch persists across cycles, so steady-state cycles increment it zero times.
void MergeScoreHeap(std::vector<HeapEntry>& heap, std::vector<HeapEntry>& fresh,
                    std::vector<HeapEntry>& scratch, const TaskCacheMap& cache,
                    uint64_t cycle_stamp, bool& slots_moved, uint64_t& merge_allocs,
                    std::vector<size_t>* order_out);

// The CANRUN walk over `order` with feasibility memos — identical grants to
// AllocateInOrder on the same order. Version sums are monotone (each version only grows),
// so an unchanged sum proves every requested block unchanged since a task's last
// rejection: still infeasible, skip the per-order filter scans. Commits made earlier in
// the walk bump `version_now`, so the memo can never mask newly-created contention.
// `cache_of_index` resolves a batch index to its TaskCache entry (engine-specific);
// templated so the per-task resolution inlines on this hot path.
template <typename CacheOfIndex>
std::vector<size_t> RunAllocationWalk(std::span<const Task> pending, BlockManager& blocks,
                                      std::span<const size_t> order,
                                      std::span<uint64_t> version_now,
                                      CacheOfIndex&& cache_of_index) {
  std::vector<size_t> granted;
  for (size_t idx : order) {
    const Task& task = pending[idx];
    if (task.blocks.empty()) {
      continue;  // Unresolved block request.
    }
    TaskCache& cached = cache_of_index(idx);
    uint64_t vsum = 0;
    for (BlockId j : task.blocks) {
      vsum += version_now[static_cast<size_t>(j)];
    }
    if (cached.reject_vsum == vsum) {
      continue;
    }
    bool can_run = true;
    for (BlockId j : task.blocks) {
      if (!blocks.block(j).CanAccept(task.demand)) {
        can_run = false;
        break;
      }
    }
    if (!can_run) {
      cached.reject_vsum = vsum;
      continue;
    }
    for (BlockId j : task.blocks) {
      blocks.block(j).Commit(task.demand);
      version_now[static_cast<size_t>(j)] = blocks.block(j).version();
    }
    cached.last_seen = 0;  // The grant removes the task from the queue.
    granted.push_back(idx);
  }
  return granted;
}

// Abstract incremental scheduling engine: the interface `GreedyScheduler` drives, with two
// implementations — the single-threaded `ScheduleContext` below and the multi-shard
// `ShardedScheduleContext` (src/core/sharded_schedule_context.h). Both grant exactly the
// same task sets as `RecomputeScheduleBatch` under the cycle protocol documented on
// ScheduleContext::ScheduleBatch.
class ScheduleEngine {
 public:
  virtual ~ScheduleEngine() = default;

  virtual std::vector<size_t> ScheduleBatch(std::span<const Task> pending,
                                            BlockManager& blocks) = 0;

  // Drops all cached state; the next cycle rebuilds from scratch. Required before pointing
  // the engine at a different BlockManager.
  virtual void Invalidate() = 0;

  virtual const ScheduleContextStats& stats() const = 0;
  virtual GreedyMetric metric() const = 0;
};

class ScheduleContext : public ScheduleEngine {
 public:
  // `eta` is DPack's approximation parameter (> 0); unused by the other metrics.
  explicit ScheduleContext(GreedyMetric metric, double eta = 0.05);

  // One scheduling cycle: refreshes dirty state, rescores affected tasks, and allocates in
  // score order, committing grants to `blocks`. Returns indices into `pending` of the
  // granted tasks, in grant order — identical to RecomputeScheduleBatch on the same state.
  //
  // Correct reuse assumes the cycle protocol of OnlineScheduler: between calls, pending
  // tasks are immutable per id (late block resolution excepted — it is detected, because it
  // reallocates the task's block vector), the same `blocks` manager is passed every cycle,
  // and all block mutation goes through Commit / SetUnlockedFraction / AddBlock so versions
  // advance. Call Invalidate() if any of this is violated (e.g. switching the context to a
  // different manager).
  std::vector<size_t> ScheduleBatch(std::span<const Task> pending,
                                    BlockManager& blocks) override;

  // Drops all cached state; the next cycle rebuilds from scratch.
  void Invalidate() override;

  GreedyMetric metric() const override { return metric_; }
  const ScheduleContextStats& stats() const override { return stats_; }

 private:
  void SyncBlocks(const BlockManager& blocks);
  void MarkMembershipDirty(std::span<const Task> pending);
  // Walks this cycle's dirty blocks and stamps their live home tasks stale through the
  // per-block reverse index — O(dirty blocks + their tasks), replacing the old
  // per-pending-task dirty-bitmap scan. Dead index entries (granted/evicted tasks, or
  // entries whose task was not pending last cycle) are swap-popped as they are met.
  void MarkStaleTasks(uint64_t previous_cycle);
  void RecomputeDirtyBestAlphas(std::span<const Task> pending);
  // Records block `j` as dirty this cycle, once (dirty_ids_ stays duplicate-free).
  void MarkDirtyBlock(size_t j) {
    if (dirty_stamp_[j] != cycle_stamp_) {
      dirty_stamp_[j] = cycle_stamp_;
      dirty_ids_.push_back(static_cast<BlockId>(j));
    }
  }
  double ScoreTask(const Task& task) const;
  // Pops the heap into order_ by merging the surviving sorted entries with the cycle's
  // freshly-rescored ones, dropping stale entries at pop time.
  void PopHeapIntoOrder();
  // The CANRUN walk over `order_` with feasibility memos; identical grants to
  // AllocateInOrder on the same order.
  std::vector<size_t> AllocateWithMemos(std::span<const Task> pending, BlockManager& blocks);

  GreedyMetric metric_;
  double eta_;
  ScheduleContextStats stats_;
  uint64_t cycle_stamp_ = 0;  // Incremented per ScheduleBatch; task cache liveness clock.

  // Block-side cache. The snapshot is created on the first cycle (it needs the manager's
  // grid) and then maintained incrementally. Dirty state is tracked as an explicit id list
  // (stamp-deduplicated) fed by the version-tree drill-down and the membership pass, so
  // per-cycle cost scales with the number of changed blocks, never the block count.
  std::optional<CapacitySnapshot> snapshot_;
  std::vector<uint64_t> last_version_;  // Size doubles as the known-block count.
  std::vector<uint64_t> version_now_;  // Contiguous mirror of block versions for the walk.
  std::vector<uint64_t> group_seen_;   // Version-tree group sums at the last sync.
  std::vector<uint64_t> dirty_stamp_;  // Per block: cycle stamp when last marked dirty.
  std::vector<BlockId> dirty_ids_;     // This cycle's dirty blocks, duplicate-free.
  std::vector<uint64_t> member_sig_;   // DPack: per-block requester-set signature.
  std::vector<size_t> best_alpha_;     // DPack: cached best order per block.
  std::vector<uint64_t> sig_scratch_;  // Per-cycle membership signature accumulator.
  // DPack membership bookkeeping, O(touched) per cycle: blocks whose signature was folded
  // this cycle (stamp-deduplicated), and blocks whose current signature is non-seed (the
  // only ones that can go dirty by *losing* all requesters).
  std::vector<uint64_t> touched_stamp_;
  std::vector<BlockId> touched_ids_;
  std::vector<BlockId> active_ids_;
  // Reverse index: per block, the ids of pending tasks requesting it. Tasks are inserted
  // when (re)scored with a new or re-resolved block list — so every live cached score has
  // its entries present — and lazily swap-popped when found dead by the marking pass.
  std::vector<std::vector<TaskId>> rindex_;

  // Task-side cache and score heap. heap_ holds the persistent entries in fully-sorted
  // (hence heap-ordered) form; fresh_ collects this cycle's rescored entries before the
  // merge-pop.
  TaskCacheMap cache_;
  std::vector<HeapEntry> heap_;
  std::vector<HeapEntry> fresh_;
  uint64_t next_generation_ = 1;
  bool slots_moved_ = false;  // Set on rehash/purge; entries re-resolve at next pop.

  // Scratch buffers reused across cycles to avoid per-cycle allocation.
  std::vector<HeapEntry> merged_;
  std::vector<size_t> order_;
  std::vector<size_t> slot_of_index_;            // Cache slot per batch index, per cycle.
  std::vector<std::vector<size_t>> requesters_;  // Per dirty block, for best-alpha solves.
};

}  // namespace dpack

#endif  // SRC_CORE_SCHEDULE_CONTEXT_H_
