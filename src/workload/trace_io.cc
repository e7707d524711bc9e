#include "src/workload/trace_io.h"

#include <algorithm>
#include <cctype>
#include <cerrno>
#include <cmath>
#include <cstdlib>
#include <fstream>
#include <limits>
#include <sstream>

#include "src/common/check.h"
#include "src/common/wire.h"

namespace dpack {

namespace {

// Format v2, the only one read: the explicit `blocks` column sits between num_recent_blocks
// and the demand curve. Other versions of the magic are rejected by name.
constexpr char kMagicPrefix[] = "dpack_trace_";
constexpr char kMagic[] = "dpack_trace_v2";

// Separator inside the blocks cell: the cell must not contain the CSV delimiter.
constexpr char kBlockSep = ';';

// Exception-free checked numeric parsing. A bare std::stod/stoll/stoull on a malformed
// cell ("abc" where a number belongs) throws an uncaught std::invalid_argument — a crash,
// not the diagnostic rejection the rest of this reader promises. These helpers accept a
// cell only when strtod/strtoll consume it entirely (no leading whitespace, no trailing
// junk, no overflow) and otherwise fail through DPACK_CHECK_MSG naming the 1-based row and
// column, like every other malformed-trace diagnostic here.
double ParseDoubleCell(const std::string& cell, size_t row, size_t column) {
  errno = 0;
  char* end = nullptr;
  double value = std::strtod(cell.c_str(), &end);
  bool overflow = errno == ERANGE && (value == HUGE_VAL || value == -HUGE_VAL);
  DPACK_CHECK_MSG(!cell.empty() && !std::isspace(static_cast<unsigned char>(cell[0])) &&
                      end == cell.c_str() + cell.size() && !overflow,
                  "malformed numeric cell at trace row " << row << " column " << column);
  return value;
}

int64_t ParseInt64Cell(const std::string& cell, size_t row, size_t column) {
  errno = 0;
  char* end = nullptr;
  long long value = std::strtoll(cell.c_str(), &end, 10);
  DPACK_CHECK_MSG(!cell.empty() && !std::isspace(static_cast<unsigned char>(cell[0])) &&
                      end == cell.c_str() + cell.size() && errno != ERANGE,
                  "malformed integer cell at trace row " << row << " column " << column);
  return static_cast<int64_t>(value);
}

uint64_t ParseUint64Cell(const std::string& cell, size_t row, size_t column) {
  // strtoull silently wraps a leading '-' into a huge positive value, so only digit-pure
  // cells are even attempted.
  DPACK_CHECK_MSG(!cell.empty() &&
                      cell.find_first_not_of("0123456789") == std::string::npos,
                  "malformed count cell at trace row " << row << " column " << column);
  errno = 0;
  char* end = nullptr;
  unsigned long long value = std::strtoull(cell.c_str(), &end, 10);
  DPACK_CHECK_MSG(end == cell.c_str() + cell.size() && errno != ERANGE,
                  "malformed count cell at trace row " << row << " column " << column);
  return static_cast<uint64_t>(value);
}

std::vector<std::string> SplitCsvLine(const std::string& line) {
  std::vector<std::string> cells;
  std::string cell;
  std::istringstream stream(line);
  while (std::getline(stream, cell, ',')) {
    cells.push_back(cell);
  }
  return cells;
}

// Parses a ';'-separated list of block ids; empty cell = no explicit list. The list must
// be strictly ascending (sorted, distinct) — the canonical order WriteTrace enforces. A
// duplicate id would double-commit the task's demand to that block on grant, silently
// overcharging its privacy budget, so it is malformed input, not a tolerable variation.
std::vector<BlockId> ParseBlocksCell(const std::string& cell) {
  std::vector<BlockId> blocks;
  if (cell.empty()) {
    return blocks;
  }
  DPACK_CHECK_MSG(cell.back() != kBlockSep, "malformed blocks cell");
  std::istringstream stream(cell);
  std::string token;
  while (std::getline(stream, token, kBlockSep)) {
    // 18 digits keeps the value well inside int64 — stoll can never throw. Leading zeros
    // are rejected too: only the canonical encoding is readable, so a reload-and-reexport
    // cycle is always byte-identical.
    DPACK_CHECK_MSG(!token.empty() && token.size() <= 18 &&
                        token.find_first_not_of("0123456789") == std::string::npos &&
                        (token.size() == 1 || token[0] != '0'),
                    "malformed blocks cell");
    BlockId id = static_cast<BlockId>(std::stoll(token));
    DPACK_CHECK_MSG(blocks.empty() || blocks.back() < id, "malformed blocks cell");
    blocks.push_back(id);
  }
  DPACK_CHECK_MSG(!blocks.empty(), "malformed blocks cell");
  return blocks;
}

}  // namespace

bool WriteTrace(std::ostream& os, std::span<const Task> tasks, const AlphaGridPtr& grid) {
  // Precision 17 roundtrips every double exactly — set before the order header so the
  // reader's bit-pattern grid check holds for any grid, not just short-decimal orders.
  os.precision(17);
  os << kMagic;
  for (double alpha : grid->orders()) {
    os << "," << alpha;
  }
  os << "\n";
  os << "id,weight,arrival_time,timeout,num_recent_blocks,blocks";
  for (size_t a = 0; a < grid->size(); ++a) {
    os << ",eps_a" << grid->order(a);
  }
  os << "\n";
  for (const Task& task : tasks) {
    DPACK_CHECK_MSG(SameGrid(task.demand.grid(), grid), "task grid mismatch");
    os << task.id << "," << task.weight << "," << task.arrival_time << ","
       << (std::isinf(task.timeout) ? -1.0 : task.timeout) << "," << task.num_recent_blocks
       << ",";
    for (size_t b = 0; b < task.blocks.size(); ++b) {
      DPACK_CHECK_MSG(task.blocks[b] >= 0, "negative block id in trace");
      // Strictly ascending is the canonical (and only readable) encoding: a duplicate id
      // would double-charge the block on grant.
      DPACK_CHECK_MSG(b == 0 || task.blocks[b - 1] < task.blocks[b],
                      "block list must be sorted and distinct");
      if (b > 0) {
        os << kBlockSep;
      }
      os << task.blocks[b];
    }
    for (size_t a = 0; a < grid->size(); ++a) {
      os << "," << task.demand.epsilon(a);
    }
    os << "\n";
  }
  return static_cast<bool>(os);
}

bool WriteTraceFile(const std::string& path, std::span<const Task> tasks,
                    const AlphaGridPtr& grid) {
  std::ofstream out(path);
  if (!out) {
    return false;
  }
  return WriteTrace(out, tasks, grid);
}

std::vector<Task> ReadTrace(std::istream& is, const AlphaGridPtr& grid) {
  std::string line;
  DPACK_CHECK_MSG(std::getline(is, line), "empty trace");
  std::vector<std::string> header = SplitCsvLine(line);
  DPACK_CHECK_MSG(!header.empty() && header[0].starts_with(kMagicPrefix), "not a dpack trace");
  DPACK_CHECK_MSG(header[0] == kMagic,
                  "unsupported trace format " << header[0] << " (expected " << kMagic << ")");
  DPACK_CHECK_MSG(header.size() == grid->size() + 1, "trace grid size mismatch");
  for (size_t a = 0; a < grid->size(); ++a) {
    // Bit-pattern equality (the snapshot codec's convention): the writer prints orders at
    // precision 17, which roundtrips doubles exactly, so the reparsed bits must match the
    // grid's bits exactly — a tolerance here could silently accept a neighboring grid.
    double parsed = ParseDoubleCell(header[a + 1], /*row=*/1, /*column=*/a + 2);
    DPACK_CHECK_MSG(BitsOfDouble(parsed) == BitsOfDouble(grid->order(a)),
                    "trace grid order mismatch");
  }
  DPACK_CHECK_MSG(std::getline(is, line), "missing column header");
  std::vector<std::string> columns = SplitCsvLine(line);
  DPACK_CHECK_MSG(std::find(columns.begin(), columns.end(), "blocks") != columns.end(),
                  "v2 trace missing the blocks column");
  // The fixed columns must sit at their exact positions: a reordered header would make
  // the positional row parse below read a demand or a block list out of the wrong cell.
  const std::vector<std::string> expected_prefix = {
      "id", "weight", "arrival_time", "timeout", "num_recent_blocks", "blocks"};
  size_t fixed_columns = expected_prefix.size();
  DPACK_CHECK_MSG(columns.size() == fixed_columns + grid->size(),
                  "trace column header mismatch");
  for (size_t c = 0; c < fixed_columns; ++c) {
    DPACK_CHECK_MSG(columns[c] == expected_prefix[c], "trace column header mismatch");
  }

  std::vector<Task> tasks;
  size_t row = 2;  // 1-based file line; the two header lines came first.
  while (std::getline(is, line)) {
    ++row;
    if (line.empty()) {
      continue;
    }
    // A row whose blocks cell is empty drops the empty trailing token under the CSV
    // splitter only when the cell is last — it never is (the demand columns follow), so
    // every well-formed row splits to the exact column count.
    std::vector<std::string> cells = SplitCsvLine(line);
    DPACK_CHECK_MSG(cells.size() == fixed_columns + grid->size(), "malformed trace row");
    std::vector<double> eps(grid->size());
    for (size_t a = 0; a < grid->size(); ++a) {
      eps[a] = ParseDoubleCell(cells[fixed_columns + a], row, fixed_columns + a + 1);
    }
    Task task(static_cast<TaskId>(ParseInt64Cell(cells[0], row, 1)),
              ParseDoubleCell(cells[1], row, 2), RdpCurve(grid, std::move(eps)));
    task.arrival_time = ParseDoubleCell(cells[2], row, 3);
    // strtod takes "inf", "nan" and negatives; an arrival must be a finite instant >= 0.
    DPACK_CHECK_MSG(std::isfinite(task.arrival_time) && task.arrival_time >= 0.0,
                    "arrival_time out of range at trace row " << row << " column 3");
    double timeout = ParseDoubleCell(cells[3], row, 4);
    task.timeout = timeout < 0.0 ? std::numeric_limits<double>::infinity() : timeout;
    task.num_recent_blocks = static_cast<size_t>(ParseUint64Cell(cells[4], row, 5));
    task.blocks = ParseBlocksCell(cells[5]);
    tasks.push_back(std::move(task));
  }
  return tasks;
}

std::vector<Task> ReadTraceFile(const std::string& path, const AlphaGridPtr& grid) {
  std::ifstream in(path);
  DPACK_CHECK_MSG(static_cast<bool>(in), "cannot open trace file");
  return ReadTrace(in, grid);
}

}  // namespace dpack
