// Greedy scheduling (Alg. 1: score, sort, CANRUN walk): the definitions that the
// recompute reference path and the incremental engine (`IncrementalEngine`,
// src/core/incremental_engine.h) share.
//
// The recompute path (`RecomputeScheduleBatch`, the original GreedyScheduler behavior) costs
// O(pending × blocks × orders) per cycle — including DPack's per-(block, order) knapsack
// subproblems — even when almost nothing changed between cycles. The incremental engine
// persists block state across cycles instead, scores only the tasks that can run, and grants
// exactly the same task sequence; the differential suites compare the two. Both score with
// `ScoreGreedyTask` and order by `HeapEntryBefore`'s total order (score desc, arrival asc,
// id asc), and the engine reports its work through `ScheduleContextStats`.

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
// block list are skipped. The recompute path's walk; the incremental engine walks only the
// tasks feasible at the start of the cycle, with the same checks and commits.
std::vector<size_t> AllocateInOrder(std::span<const Task> pending, BlockManager& blocks,
                                    std::span<const size_t> order);

// Reference recompute-everything scheduling pass: snapshot every block, score every pending
// task, sort, allocate. This is the pre-incremental `GreedyScheduler::ScheduleBatch`; the
// differential tests and benchmarks use it as the baseline, and the incremental engine falls
// back to it when a batch has duplicate task ids.
std::vector<size_t> RecomputeScheduleBatch(GreedyMetric metric, double eta,
                                           std::span<const Task> pending,
                                           BlockManager& blocks);

// Counters describing how much work the incremental engine did and skipped. Monotonic over
// the engine's lifetime. The names date from the score cache the feasibility pass replaced.
struct ScheduleContextStats {
  uint64_t cycles = 0;  // ScheduleBatch calls (non-empty batches).
  // Scores computed: the tasks every block accepted at the start of their cycle.
  uint64_t tasks_rescored = 0;
  // Pending tasks the rejection memo settled without a CanAccept check.
  uint64_t tasks_reused = 0;
  uint64_t blocks_refreshed = 0;       // Snapshot entries refreshed (version changes).
  uint64_t best_alpha_recomputes = 0;  // Per-block best-alpha subproblems solved.
  uint64_t full_recomputes = 0;        // Fallbacks to RecomputeScheduleBatch.
  // Growths of the persistent candidate and sort buffers. They keep room for a whole batch,
  // so cycles whose queue is no longer than an earlier one's allocate nothing — pinned by
  // tests and gated at zero in bench/baseline.json.
  uint64_t merge_allocs = 0;

  // Counters are monotonic over an engine's lifetime; subtracting an earlier snapshot
  // isolates one run's (or one timed loop's) work. The single definition all delta
  // consumers (orchestrator results, bench reports) must share, so a future counter cannot
  // be forgotten in one of them.
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
// A new field must be added to Delta and to tests/core/schedule_context_stats_test.cc; this
// assert fails the build until the test's field list is updated with it.
static_assert(sizeof(ScheduleContextStats) == 7 * sizeof(uint64_t),
              "ScheduleContextStats changed: update Delta and its test");

// One scored entry of a score order: an incremental engine candidate.
struct HeapEntry {
  double score = 0.0;
  double arrival = 0.0;
  TaskId id = 0;
  size_t slot = 0;  // The task's index in its batch.
};

// True if `a` precedes `b` in allocation order (score desc, arrival asc, id asc) — exactly
// the recompute path's sort order. A strict total order for unique task ids, which is what
// makes the incremental engine's candidate order deterministic.
inline bool HeapEntryBefore(const HeapEntry& a, const HeapEntry& b) {
  if (a.score != b.score) {
    return a.score > b.score;
  }
  if (a.arrival != b.arrival) {
    return a.arrival < b.arrival;
  }
  return a.id < b.id;
}

// Sorts `entries` into HeapEntryBefore order: the incremental engine's allocation-order
// sort. An LSD radix sort on the score's
// order-preserving bit pattern (descending) orders the scores, then each run of `==` scores
// is sorted with HeapEntryBefore, which settles ±0.0 and the (arrival, id) tie-break. Small
// inputs take std::sort. `scratch` is the radix pass's second buffer; the two may trade
// storage, and both keep their capacity, so callers that hold them across calls sort
// without allocating in the steady state.
void SortHeapEntries(std::vector<HeapEntry>& entries, std::vector<HeapEntry>& scratch);

// Scores one task under `metric` against `snapshot` (and `best_alpha` for DPack): the one
// scoring function of the recompute path and the incremental engine.
// FCFS never scores (DPACK_CHECKs).
double ScoreGreedyTask(GreedyMetric metric, const Task& task, const CapacitySnapshot& snapshot,
                       std::span<const size_t> best_alpha);

}  // namespace dpack

#endif  // SRC_CORE_SCHEDULE_CONTEXT_H_
