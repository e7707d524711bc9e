#include "src/core/task.h"

#include <cmath>
#include <utility>

namespace dpack {

TaskRecord RecordOf(const Task& task) {
  return {task.id, task.weight, task.arrival_time, task.timeout, task.demand.epsilons(),
          task.blocks, task.num_recent_blocks};
}

Task TaskOf(TaskRecord record, AlphaGridPtr grid) {
  Task task(record.id, record.weight, RdpCurve(std::move(grid), std::move(record.demand)));
  task.arrival_time = record.arrival_time;
  task.timeout = record.timeout;
  task.blocks = std::move(record.blocks);
  task.num_recent_blocks = static_cast<size_t>(record.num_recent_blocks);
  return task;
}

std::string ValidateTaskRecord(const TaskRecord& record, size_t orders, size_t block_count) {
  if (!std::isfinite(record.weight) || record.weight <= 0.0) {
    return "weight must be finite and positive";
  }
  if (!std::isfinite(record.arrival_time) || record.arrival_time < 0.0) {
    return "arrival_time must be finite and non-negative";
  }
  // +inf (never evicted) is the one sanctioned non-finite; NaN would poison every eviction
  // comparison and a negative deadline is meaningless.
  if (std::isnan(record.timeout) || record.timeout < 0.0) {
    return "timeout must be non-negative or +inf";
  }
  if (record.demand.size() != orders) {
    return "demand curve width " + std::to_string(record.demand.size()) +
           " does not match the grid's " + std::to_string(orders) + " orders";
  }
  for (double eps : record.demand) {
    if (!std::isfinite(eps) || eps < 0.0) {
      return "demand epsilon must be finite and non-negative";
    }
  }
  for (size_t b = 0; b < record.blocks.size(); ++b) {
    BlockId id = record.blocks[b];
    if (id < 0 || static_cast<size_t>(id) >= block_count) {
      return "block id " + std::to_string(id) + " outside the known range";
    }
    // Strictly ascending is the canonical encoding (trace_io enforces the same): a
    // duplicate id would double-charge that block's budget on grant.
    if (b > 0 && record.blocks[b - 1] >= id) {
      return "block list must be sorted and distinct";
    }
  }
  return "";
}

}  // namespace dpack
