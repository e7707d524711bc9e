// Batch scheduling algorithms for privacy budget (§3): DPack (Alg. 1), DPF, FCFS, the area
// heuristic (Eq. 4 ablation), and the exact Optimal baseline.
//
// A `Scheduler` examines one batch of pending tasks, commits the demands of the tasks it
// grants to the block manager (through the per-block privacy filters), and reports which
// tasks were granted. The online driver (`OnlineScheduler`) repeatedly invokes it as tasks
// and blocks arrive; calling it once on a fully-unlocked system is the offline setting.

#ifndef SRC_CORE_SCHEDULER_H_
#define SRC_CORE_SCHEDULER_H_

#include <memory>
#include <span>
#include <string>
#include <vector>

#include "src/block/block_manager.h"
#include "src/core/incremental_engine.h"
#include "src/core/schedule_context.h"
#include "src/core/task.h"
#include "src/knapsack/privacy_knapsack.h"

namespace dpack {

class Scheduler {
 public:
  virtual ~Scheduler() = default;

  virtual std::string name() const = 0;

  // Tries to allocate tasks from `pending` given current block state. Grants are committed
  // to `blocks` (budget consumed) before returning. Returns indices into `pending` of the
  // granted tasks, in grant order.
  virtual std::vector<size_t> ScheduleBatch(std::span<const Task> pending,
                                            BlockManager& blocks) = 0;
};

// Greedy allocation shared by DPF / area / DPack / FCFS: score every pending task, order by
// score descending (ties: earlier arrival, then lower id), then walk the order granting every
// task whose full demand the filters of all its requested blocks accept (CANRUN of Alg. 1).
// `GreedyMetric` itself is declared in schedule_context.h.
struct GreedySchedulerOptions {
  // DPack's approximation parameter eta (> 0): best-alpha subproblems are solved to
  // (2/3) eta (Prop. 5 uses the 1/2 + eta bound).
  double eta = 0.05;
  // When set (the default) the scheduler runs on the incremental engine
  // (IncrementalEngine): scoring state persists across ScheduleBatch calls and only tasks
  // touching changed blocks are rescored. When cleared, every batch is recomputed from
  // scratch (the reference path — identical grants, used by the differential tests and as
  // the benchmarks' baseline).
  bool incremental = true;
};

class GreedyScheduler : public Scheduler {
 public:
  GreedyScheduler(GreedyMetric metric, GreedySchedulerOptions options = {});

  std::string name() const override;
  std::vector<size_t> ScheduleBatch(std::span<const Task> pending,
                                    BlockManager& blocks) override;

  GreedyMetric metric() const { return metric_; }

  // The incremental engine, for cache control and stats. Non-null iff options.incremental.
  IncrementalEngine* engine() { return engine_.get(); }
  const IncrementalEngine* engine() const { return engine_.get(); }

 private:
  GreedyMetric metric_;
  GreedySchedulerOptions options_;
  std::unique_ptr<IncrementalEngine> engine_;
};

// The Optimal baseline: maps the batch to a privacy-knapsack instance over the blocks'
// available capacity and solves it exactly (branch and bound). Falls back to the incumbent
// when the node/time budget is exhausted; `last_solve_optimal()` reports whether the last
// batch was solved to proven optimality.
class OptimalScheduler : public Scheduler {
 public:
  explicit OptimalScheduler(PkOptions options = {});

  std::string name() const override { return "Optimal"; }
  std::vector<size_t> ScheduleBatch(std::span<const Task> pending,
                                    BlockManager& blocks) override;

  bool last_solve_optimal() const { return last_solve_optimal_; }
  uint64_t last_nodes_explored() const { return last_nodes_explored_; }

 private:
  PkOptions options_;
  // Knapsack instance reused across batches: the blocks×orders capacity matrix is resized
  // only when the system grows, avoiding a per-cycle reallocation (values are refilled each
  // cycle — consumption and unlocking change them).
  PkInstance instance_;
  std::vector<size_t> batch_index_;
  bool last_solve_optimal_ = true;
  uint64_t last_nodes_explored_ = 0;
};

enum class SchedulerKind {
  kDpack,
  kDpf,
  kArea,
  kFcfs,
  kOptimal,
};

std::string SchedulerKindName(SchedulerKind kind);

// Factory covering every algorithm in the evaluation.
std::unique_ptr<Scheduler> CreateScheduler(SchedulerKind kind, double eta = 0.05,
                                           PkOptions optimal_options = {});

}  // namespace dpack

#endif  // SRC_CORE_SCHEDULER_H_
