// Incremental scheduling engine (§6.4 Q4 scalability): persists block-side state across
// scheduling cycles instead of rebuilding it from scratch, and scores only the tasks that
// can run. It grants *exactly* the same sequence as `RecomputeScheduleBatch` — pinned by
// tests/core/incremental_equivalence_test.cc. Every metric runs it, FCFS included: FCFS
// scores every candidate 0, so the sort orders its candidates by (arrival, id).
//
// Cycle, all on the caller's thread:
//   1. ObserveBatch walks the previous batch's task entries along this batch (see Task-side
//      state), carrying over each task that matches its entry, and records the arrivals and
//      departures; a new or changed task has its block ids checked and starts without a memo.
//      Every batch takes this one walk, whatever its order.
//   2. SyncBlocks records arrivals (dirty) and the blocks the one version-tree drill-down
//      reports changed (dirty); for DPack it applies the membership events to the requester
//      columns (dirtying their blocks) and solves the dirty blocks' best alphas. Scores read
//      the best alphas, which depend on every requester, feasible or not, and read capacity
//      from the blocks themselves: nothing has committed yet this cycle.
//   3. CollectCandidates makes one pass over the batch in order. A task whose rejection memo
//      holds is settled without a check; any other is checked with CanAccept against its
//      blocks as they stand at the start of the cycle. A rejected task gets a memo; a task
//      every block accepts is scored (ScoreGreedyTask) and becomes a candidate.
//   4. SortHeapEntries orders the candidates by HeapEntryBefore, the reference sort's order.
//   5. The CANRUN walk commits the grants. Only a candidate with a block committed earlier in
//      the walk is checked again; for the others the start-of-cycle check still holds.
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
//     (SmallestDemands), which is what BestAlphaForBlock reads. The walk's departures leave
//     their blocks and its arrivals join theirs; only these events touch the columns, and
//     they mark exactly their blocks dirty. The walk keeps the columns in batch order: carried
//     tasks keep their relative order, a re-resolved task rejoins in its place, and arrivals
//     form the batch's tail, so they append.
//
// Task-side state: one TaskEntry per task, in batch order. The batch keeps a stable relative
// order (OnlineScheduler appends arrivals and compacts grants and evictions stably), so
// ObserveBatch walks the previous batch's entries along this one. A task matches its entry
// only if it has the same id, comes in order, and has the same block vector (pointer and
// length: the buffer travels with the task on moves, and late resolution reallocates it);
// an entry granted by the previous walk never matches. A matched task keeps its entry, and
// an unchanged block list is what makes its memo and its requester columns still its own.
// Any other task leaves (if it had an entry) and joins as an arrival, so a task that reuses
// a departed task's id does not inherit its state. Under OnlineScheduler no recycled buffer
// can fake the identity: a granted entry never matches, and a task evicted at the start of
// a cycle coexisted with every task submitted before it (so their buffers are distinct),
// while a task submitted later meets its entry already departed. The walk consults the id
// index (TaskIndex) only where it mismatches: to tell an arrival from a survivor whose
// predecessors departed. A departing entry leaves the index as the walk passes it, so an id
// the index no longer holds is an arrival, and one held behind the walk was carried earlier
// in this batch: a repeated id. From the first arrival on, every remaining entry departs and
// every later task arrives. A batch that breaks the order therefore costs only reuse: a task
// moved ahead of others is carried, and the tasks it passed rejoin without their memos.
//
// The rejection memo. A rejected task remembers the first block that rejected it and that
// block's version. Versions only grow and an unchanged version proves the block's state
// bit-identical, so while the version holds the block still rejects the task, whatever its
// other blocks do; the pass skips it without a check. Commits made earlier in the same walk
// bump versions and so re-enable the check. The memo names the block holding the task back.
// It lives in the task's entry, so it lasts exactly as long as the walk carries the task.
//
// Batches with duplicate task ids fall back to RecomputeScheduleBatch.
//
// The engine lives inside `GreedyScheduler`, whose instance persists across
// `OnlineScheduler::RunCycle` calls — that persistence is what makes the state pay off.

#ifndef SRC_CORE_INCREMENTAL_ENGINE_H_
#define SRC_CORE_INCREMENTAL_ENGINE_H_

#include <cstdint>
#include <span>
#include <vector>

#include "src/block/block_manager.h"
#include "src/core/efficiency.h"
#include "src/core/schedule_context.h"
#include "src/core/task.h"

namespace dpack {

// One task of a batch, carried into the next batch while the task matches it.
struct TaskEntry {
  TaskId id = 0;
  // Strictly increasing along the batch and kept while the task stays carried: it orders the
  // task among the previous batch's entries and among its blocks' requesters.
  uint64_t key = 0;
  // Identity of the task's block list: its buffer and length.
  const BlockId* blocks_ptr = nullptr;
  uint32_t blocks_len = 0;
  // DPack: where the member pool lists the blocks whose requester columns hold the task (its
  // block list when it joined them, blocks_len entries).
  uint32_t member_at = 0;
  // Rejection memo: the first block that rejected the task, and that block's version then.
  BlockId reject_block = kNoMemo;
  uint64_t reject_version = 0;
  bool granted = false;  // Set by the walk that grants the task.

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

// Open-addressing map TaskId -> TaskEntry::key, holding exactly the ids of the tasks still
// pending after the last cycle (that batch's ids, less the ones it granted). The walk reads
// it only where it mismatches, so a linear-probe table with backward-shift deletion keeps it
// as large as the queue and never needs a sweep.
class TaskIndex {
 public:
  static constexpr uint64_t kAbsent = ~0ULL;

  TaskIndex();
  uint64_t Find(TaskId id) const;  // The key, or kAbsent.
  // Adds `id` (absent) with `key` (< kAbsent), growing the table past three quarters full.
  void Insert(TaskId id, uint64_t key);
  void Erase(TaskId id);  // `id` must be present.
  size_t size() const { return size_; }
  size_t capacity() const { return slots_.size(); }

 private:
  struct Slot {
    TaskId id = 0;
    uint64_t key = kAbsent;  // kAbsent marks a free slot.
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

  // One scheduling cycle: refreshes dirty state, scores the tasks that can run, and
  // allocates in score order, committing grants to `blocks`. Returns indices into `pending` of the
  // granted tasks, in grant order — identical to RecomputeScheduleBatch on the same state.
  //
  // Correct reuse assumes the cycle protocol of OnlineScheduler: between calls, pending
  // tasks are immutable per id (late block resolution excepted — it is detected, because it
  // reallocates the task's block vector; a task that takes a departed task's id is new to
  // the engine while its block vector is a buffer of its own), the blocks passed every cycle
  // carry the same version history (the same manager, or a Clone/Restore of it), and all
  // block mutation goes through Commit / SetUnlockedFraction / AddBlock so versions advance.
  // Call Invalidate() if any of this is violated (e.g. switching to an unrelated manager).
  // Every task block id must name a block of `blocks` (DPACK_CHECKed when the task is new
  // or its block list changed).
  std::vector<size_t> ScheduleBatch(std::span<const Task> pending, BlockManager& blocks);

  // Drops all cached state; the next cycle rebuilds from scratch.
  void Invalidate();

  GreedyMetric metric() const { return metric_; }
  const ScheduleContextStats& stats() const { return stats_; }
  // The ids of the tasks still pending after the last cycle, with their keys.
  const TaskIndex& task_index() const { return index_; }

 private:
  // Step 1 of the cycle: walks the previous batch's entries along `pending` into batch_,
  // checking the block ids of the arrivals and changed tasks, and records the departures and
  // (DPack) the membership events. Returns false, having stopped early, on a repeated task id.
  bool ObserveBatch(std::span<const Task> pending, size_t block_count);
  // Absorbs arrivals and changed blocks' versions; for DPack, applies the membership events
  // and solves the dirty blocks' best alphas.
  void SyncBlocks(const BlockManager& blocks, std::span<const Task> pending);
  std::span<const BlockId> MemberOf(const TaskEntry& entry) const {
    return {member_pool_.data() + entry.member_at, entry.blocks_len};
  }
  // Records batch task `index`'s block list as the blocks it joins.
  void Join(size_t index, const Task& task);
  // Drops the departed tasks' block lists from the member pool once they dominate it.
  void CompactMemberPool();
  // Where batch task `index` goes among `members`, whose tasks are all in this batch.
  size_t MemberPosition(const BlockMembers& members, size_t index) const;
  // Step 3: the feasibility pass. Scores the tasks every block accepts into candidates_, in
  // batch order, and gives the others a memo.
  void CollectCandidates(std::span<const Task> pending, const BlockManager& blocks);
  // True if every block of `task` accepts its demand; otherwise records the first rejecting
  // block and its version as `entry`'s memo.
  bool Accepts(const Task& task, const BlockManager& blocks, TaskEntry& entry) const;
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
  uint64_t cycle_stamp_ = 0;  // Incremented per ScheduleBatch; the dirty marks' clock.

  // Block-side state, indexed by block id.
  std::vector<uint64_t> last_version_;  // Size doubles as the known-block count.
  // Contiguous version mirror for the memos. Persistent: arrivals append, refreshes
  // overwrite changed entries, walk commits update. During a walk it differs from
  // last_version_ exactly at the blocks the walk has committed to.
  std::vector<uint64_t> version_now_;
  std::vector<uint64_t> group_seen_;   // Version-tree group sums at the last sync.
  std::vector<uint64_t> dirty_stamp_;  // Per block: cycle stamp when last marked dirty.
  std::vector<size_t> best_alpha_;     // DPack: cached best order per block.
  std::vector<BlockMembers> members_;  // DPack: per block, its requester columns.
  // DPack: this cycle's dirty blocks (capacity or membership), duplicate-free via
  // dirty_stamp_; the blocks whose best alpha is solved again.
  std::vector<BlockId> dirty_ids_;
  // DPack membership events of this cycle, from ObserveBatch: positions in prev_batch_ of
  // the entries leaving their blocks (departed, or carried onto a changed block list), in
  // batch order; and batch indices of the tasks joining theirs (arrivals and changed tasks).
  // Tasks from `tail_start_` on are all arrivals, so they join at the end of their blocks'
  // columns.
  std::vector<uint32_t> leaving_;
  std::vector<size_t> joining_;
  size_t tail_start_ = 0;
  // DPack: the batch tasks' member blocks, appended as tasks join and compacted to this
  // batch's (member_refs_ of them) when departed tasks' lists dominate.
  std::vector<BlockId> member_pool_;
  std::vector<BlockId> pool_scratch_;  // The compaction's target, then the next scratch.
  size_t member_refs_ = 0;
  std::vector<size_t> positions_;      // BlockMembers::RemoveLeaving's scratch.

  // Task-side state.
  std::vector<TaskEntry> prev_batch_;  // The previous batch, in order.
  std::vector<TaskEntry> batch_;       // This batch, in order.
  TaskIndex index_;                    // The pending tasks' keys.
  uint64_t next_key_ = 0;              // The next arrival's key.
  // This cycle's candidates (slot = batch index), then in allocation order. Both buffers
  // persist and hold room for a whole batch, so they grow only with the queue's maximum.
  std::vector<HeapEntry> candidates_;
  std::vector<HeapEntry> sort_scratch_;  // SortHeapEntries' second buffer.
};

}  // namespace dpack

#endif  // SRC_CORE_INCREMENTAL_ENGINE_H_
