// Greedy scheduling (Alg. 1: score, sort, CANRUN walk): the definitions that the
// recompute reference path, the incremental engine (`ShardedScheduleContext`,
// src/core/sharded_schedule_context.h) and the service's daemon and workers
// (src/service/) share.
//
// The recompute path (`RecomputeScheduleBatch`, the original GreedyScheduler behavior) costs
// O(pending × blocks × orders) per cycle — including DPack's per-(block, order) knapsack
// subproblems — even when almost nothing changed between cycles. The incremental engine
// persists scoring state across cycles instead and grants exactly the same task sequence;
// the differential suites compare the two. Both score with `ScoreGreedyTask` and order by
// `HeapEntryBefore`'s total order (score desc, arrival asc, id asc), and the engine
// reports its reuse through `ScheduleContextStats`.

#ifndef SRC_CORE_SCHEDULE_CONTEXT_H_
#define SRC_CORE_SCHEDULE_CONTEXT_H_

#include <cstdint>
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
// differential tests and benchmarks use it as the baseline, and the incremental engine falls
// back to it when a batch has duplicate task ids.
std::vector<size_t> RecomputeScheduleBatch(GreedyMetric metric, double eta,
                                           std::span<const Task> pending,
                                           BlockManager& blocks);

// Counters describing how much work the incremental engine reused vs redid. Monotonic over
// the engine's lifetime. The engine sums its per-shard counters into this struct, so
// consumers read one summary regardless of the shard count.
struct ScheduleContextStats {
  uint64_t cycles = 0;                 // ScheduleBatch calls (non-empty batches).
  uint64_t tasks_rescored = 0;         // Scores computed.
  uint64_t tasks_reused = 0;           // Scores served from cache.
  uint64_t blocks_refreshed = 0;       // Snapshot entries refreshed (version changes).
  uint64_t best_alpha_recomputes = 0;  // Per-block best-alpha subproblems solved.
  uint64_t full_recomputes = 0;        // Fallbacks to RecomputeScheduleBatch.
  // Growths of the per-shard heap merges' output buffers (the N-way merge's output is not
  // counted). The buffers persist across cycles, so steady-state cycles perform zero merge
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

// One scored entry of a score order: the incremental engine's per-shard heaps and the
// service daemon's merged worker replies.
struct HeapEntry {
  double score = 0.0;
  double arrival = 0.0;
  TaskId id = 0;
  uint64_t generation = 0;
  size_t slot = 0;  // Cache slot index; revalidated via Find when slots have moved.
};

// True if `a` precedes `b` in allocation order (score desc, arrival asc, id asc) — exactly
// the recompute path's sort order. A strict total order for unique task ids, which is what
// makes the incremental engine's N-way merge and the service daemon's merge deterministic.
bool HeapEntryBefore(const HeapEntry& a, const HeapEntry& b);

// Scores one task under `metric` against `snapshot` (and `best_alpha` for DPack): the one
// scoring function of the recompute path, the incremental engine and the service workers.
// FCFS never scores (DPACK_CHECKs).
double ScoreGreedyTask(GreedyMetric metric, const Task& task, const CapacitySnapshot& snapshot,
                       std::span<const size_t> best_alpha);

}  // namespace dpack

#endif  // SRC_CORE_SCHEDULE_CONTEXT_H_
