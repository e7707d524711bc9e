// Workload (de)serialization: export generated task traces to CSV and load them back.
//
// The paper releases Alibaba-DP as a standalone benchmark; this module gives the same
// portability to any generated workload. One row per task (format v2):
//   id, weight, arrival_time, timeout, num_recent_blocks, blocks, eps(alpha_0), ...
// The header records the format version and the grid orders, so a loaded trace is validated
// against the grid it was written with. The `blocks` column carries the task's explicit
// block-id list (';'-separated, ascending) when `task.blocks` is set, and is empty for
// most-recent-blocks tasks — so any generated scenario (src/workload/scenario.h) round-trips
// exactly. Any other format version, v1 (no blocks column) included, is rejected with a
// diagnostic naming it.

#ifndef SRC_WORKLOAD_TRACE_IO_H_
#define SRC_WORKLOAD_TRACE_IO_H_

#include <iosfwd>
#include <span>
#include <string>
#include <vector>

#include "src/core/task.h"
#include "src/rdp/alpha_grid.h"

namespace dpack {

// Writes `tasks` as CSV. Returns false on I/O failure.
bool WriteTrace(std::ostream& os, std::span<const Task> tasks, const AlphaGridPtr& grid);
bool WriteTraceFile(const std::string& path, std::span<const Task> tasks,
                    const AlphaGridPtr& grid);

// Parses a trace written by WriteTrace. Aborts (DPACK_CHECK) on malformed input or a grid
// mismatch; returns the tasks in file order.
std::vector<Task> ReadTrace(std::istream& is, const AlphaGridPtr& grid);
std::vector<Task> ReadTraceFile(const std::string& path, const AlphaGridPtr& grid);

}  // namespace dpack

#endif  // SRC_WORKLOAD_TRACE_IO_H_
