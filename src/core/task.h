// A DP task: one computation (model training, statistic) demanding RDP budget from a set of
// privacy blocks (§2.3).

#ifndef SRC_CORE_TASK_H_
#define SRC_CORE_TASK_H_

#include <cstdint>
#include <limits>
#include <string>
#include <vector>

#include "src/block/privacy_block.h"
#include "src/rdp/alpha_grid.h"
#include "src/rdp/rdp_curve.h"

namespace dpack {

using TaskId = int64_t;

struct Task {
  TaskId id = 0;
  // Utility to the organization if scheduled (w_i); 1 when maximizing task count.
  double weight = 1.0;
  double arrival_time = 0.0;
  // Maximum time the task may wait in the pending queue before eviction (§3.4), in virtual
  // time units. Infinity = never evicted.
  double timeout = std::numeric_limits<double>::infinity();
  // The task's RDP demand curve, charged to every requested block (d_{i j alpha} = demand for
  // all j in `blocks`, zero elsewhere).
  RdpCurve demand;
  // Requested block ids. The paper's workloads request the most recent blocks; generators
  // leave this empty and set `num_recent_blocks`, resolved at submission time.
  std::vector<BlockId> blocks;
  // When `blocks` is empty: number of most-recent blocks to request at submission.
  size_t num_recent_blocks = 0;

  Task(TaskId task_id, double task_weight, RdpCurve task_demand)
      : id(task_id), weight(task_weight), demand(std::move(task_demand)) {}
};

// A task as it crosses a process or disk boundary: the snapshot's pending queue and the
// socket edge's Submit both carry these fields (each in its own wire order), with the demand
// as raw per-order epsilons.
struct TaskRecord {
  TaskId id = 0;
  double weight = 1.0;
  double arrival_time = 0.0;
  double timeout = 0.0;  // +inf = never evicted, as in Task.
  std::vector<double> demand;
  std::vector<BlockId> blocks;
  uint64_t num_recent_blocks = 0;
};

TaskRecord RecordOf(const Task& task);
// The task `record` describes, its demand on `grid`. Pass an rvalue to move the demand and
// block vectors instead of copying them.
Task TaskOf(TaskRecord record, AlphaGridPtr grid);

// The rules every task from outside the process must pass before it can reach a scheduler:
// weight finite and positive, arrival finite and non-negative, timeout non-negative or +inf,
// one finite non-negative demand per order of an `orders`-wide grid, and block ids below
// `block_count` in strictly ascending order (a repeated id would charge its block twice).
// Returns "" when valid, else a diagnostic.
std::string ValidateTaskRecord(const TaskRecord& record, size_t orders, size_t block_count);

}  // namespace dpack

#endif  // SRC_CORE_TASK_H_
