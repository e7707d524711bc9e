#include "src/workload/trace_io.h"

#include <cmath>
#include <limits>
#include <sstream>

#include <gtest/gtest.h>

#include "src/workload/alibaba.h"
#include "src/workload/curve_pool.h"

namespace dpack {
namespace {

AlphaGridPtr Grid() { return AlphaGrid::Default(); }

std::vector<Task> SampleWorkload(size_t n) {
  CurvePool pool(Grid(), BlockCapacityCurve(Grid(), 10.0, 1e-7));
  AlibabaConfig config;
  config.num_tasks = n;
  config.arrival_span = 10.0;
  config.seed = 3;
  return GenerateAlibabaDp(pool, config);
}

TEST(TraceIoTest, RoundTripsTasksExactly) {
  std::vector<Task> tasks = SampleWorkload(50);
  std::stringstream buffer;
  ASSERT_TRUE(WriteTrace(buffer, tasks, Grid()));
  std::vector<Task> loaded = ReadTrace(buffer, Grid());
  ASSERT_EQ(loaded.size(), tasks.size());
  for (size_t i = 0; i < tasks.size(); ++i) {
    EXPECT_EQ(loaded[i].id, tasks[i].id);
    EXPECT_DOUBLE_EQ(loaded[i].weight, tasks[i].weight);
    EXPECT_DOUBLE_EQ(loaded[i].arrival_time, tasks[i].arrival_time);
    EXPECT_EQ(loaded[i].num_recent_blocks, tasks[i].num_recent_blocks);
    EXPECT_EQ(loaded[i].demand.epsilons(), tasks[i].demand.epsilons());
  }
}

TEST(TraceIoTest, InfiniteTimeoutRoundTrips) {
  std::vector<Task> tasks = SampleWorkload(3);
  tasks[0].timeout = std::numeric_limits<double>::infinity();
  tasks[1].timeout = 12.5;
  std::stringstream buffer;
  ASSERT_TRUE(WriteTrace(buffer, tasks, Grid()));
  std::vector<Task> loaded = ReadTrace(buffer, Grid());
  EXPECT_TRUE(std::isinf(loaded[0].timeout));
  EXPECT_DOUBLE_EQ(loaded[1].timeout, 12.5);
}

TEST(TraceIoTest, FileRoundTrip) {
  std::vector<Task> tasks = SampleWorkload(10);
  std::string path = testing::TempDir() + "/dpack_trace_test.csv";
  ASSERT_TRUE(WriteTraceFile(path, tasks, Grid()));
  std::vector<Task> loaded = ReadTraceFile(path, Grid());
  EXPECT_EQ(loaded.size(), tasks.size());
  std::remove(path.c_str());
}

TEST(TraceIoDeathTest, RejectsWrongMagic) {
  std::stringstream buffer("not_a_trace,1.5\nheader\n");
  EXPECT_DEATH(ReadTrace(buffer, Grid()), "not a dpack trace");
}

TEST(TraceIoDeathTest, RejectsGridMismatch) {
  std::vector<Task> tasks;
  Task t(0, 1.0, RdpCurve(AlphaGrid::TraditionalDp()));
  t.num_recent_blocks = 1;
  tasks.push_back(t);
  std::stringstream buffer;
  WriteTrace(buffer, tasks, AlphaGrid::TraditionalDp());
  EXPECT_DEATH(ReadTrace(buffer, Grid()), "grid");
}

TEST(TraceIoTest, ExplicitBlockListsRoundTripExactly) {
  // The v2 format's reason to exist (ISSUE 5): explicit per-task block lists — what the
  // scenario generator's uniform/hot-spot selection policies emit — survive export/reload
  // bit-exactly instead of degrading to a most-recent count.
  std::vector<Task> tasks = SampleWorkload(3);
  tasks[0].blocks = {0, 1, 2};
  tasks[0].num_recent_blocks = 0;
  tasks[1].blocks = {7};
  tasks[1].num_recent_blocks = 0;
  // tasks[2] stays on the most-recent convention; both kinds share one file.
  std::stringstream buffer;
  ASSERT_TRUE(WriteTrace(buffer, tasks, Grid()));
  std::vector<Task> loaded = ReadTrace(buffer, Grid());
  ASSERT_EQ(loaded.size(), 3u);
  EXPECT_EQ(loaded[0].blocks, (std::vector<BlockId>{0, 1, 2}));
  EXPECT_EQ(loaded[0].num_recent_blocks, 0u);
  EXPECT_EQ(loaded[1].blocks, (std::vector<BlockId>{7}));
  EXPECT_TRUE(loaded[2].blocks.empty());
  EXPECT_EQ(loaded[2].num_recent_blocks, tasks[2].num_recent_blocks);
}

TEST(TraceIoDeathTest, RejectsV1Traces) {
  // Only v2 is read: a v1 magic is refused by name, whatever its columns, so no row is ever
  // parsed under a guessed layout.
  std::vector<Task> tasks = SampleWorkload(1);
  std::stringstream v2;
  ASSERT_TRUE(WriteTrace(v2, tasks, Grid()));
  std::string text = v2.str();
  text.replace(text.find("dpack_trace_v2"), 14, "dpack_trace_v1");
  std::stringstream tampered(text);
  EXPECT_DEATH(ReadTrace(tampered, Grid()),
               "unsupported trace format dpack_trace_v1 \\(expected dpack_trace_v2\\)");
}

TEST(TraceIoDeathTest, RejectsV2TraceWithoutBlocksColumn) {
  std::vector<Task> tasks = SampleWorkload(1);
  std::stringstream v2;
  ASSERT_TRUE(WriteTrace(v2, tasks, Grid()));
  std::string text = v2.str();
  size_t blocks_col = text.find(",blocks");
  ASSERT_NE(blocks_col, std::string::npos);
  text.erase(blocks_col, 7);
  std::stringstream tampered(text);
  EXPECT_DEATH(ReadTrace(tampered, Grid()), "v2 trace missing the blocks column");
}

TEST(TraceIoDeathTest, RejectsMalformedBlocksCell) {
  std::vector<Task> tasks = SampleWorkload(1);
  tasks[0].blocks = {0, 1};
  tasks[0].num_recent_blocks = 0;
  std::stringstream v2;
  ASSERT_TRUE(WriteTrace(v2, tasks, Grid()));
  std::string text = v2.str();
  size_t cell = text.find(",0;1,");
  ASSERT_NE(cell, std::string::npos);
  {
    std::string bad = text;
    bad.replace(cell, 5, ",0;x,");  // Non-numeric id.
    std::stringstream in(bad);
    EXPECT_DEATH(ReadTrace(in, Grid()), "malformed blocks cell");
  }
  {
    std::string bad = text;
    bad.replace(cell, 5, ",0;;1,");  // Empty token.
    std::stringstream in(bad);
    EXPECT_DEATH(ReadTrace(in, Grid()), "malformed blocks cell");
  }
  {
    std::string bad = text;
    bad.replace(cell, 5, ",-1;1,");  // Negative id.
    std::stringstream in(bad);
    EXPECT_DEATH(ReadTrace(in, Grid()), "malformed blocks cell");
  }
  {
    // Duplicate id: loading it would double-commit the demand to block 0 on grant,
    // silently overcharging its privacy budget.
    std::string bad = text;
    bad.replace(cell, 5, ",0;0,");
    std::stringstream in(bad);
    EXPECT_DEATH(ReadTrace(in, Grid()), "malformed blocks cell");
  }
  {
    std::string bad = text;
    bad.replace(cell, 5, ",1;0,");  // Out of order.
    std::stringstream in(bad);
    EXPECT_DEATH(ReadTrace(in, Grid()), "malformed blocks cell");
  }
  {
    // An id too long for int64: must be rejected as malformed, not crash in stoll.
    std::string bad = text;
    bad.replace(cell, 5, ",0;9223372036854775808,");
    std::stringstream in(bad);
    EXPECT_DEATH(ReadTrace(in, Grid()), "malformed blocks cell");
  }
  {
    std::string bad = text;
    bad.replace(cell, 5, ",0;1;,");  // Trailing separator: non-canonical encoding.
    std::stringstream in(bad);
    EXPECT_DEATH(ReadTrace(in, Grid()), "malformed blocks cell");
  }
  {
    std::string bad = text;
    bad.replace(cell, 5, ",00;1,");  // Leading zero: non-canonical encoding.
    std::stringstream in(bad);
    EXPECT_DEATH(ReadTrace(in, Grid()), "malformed blocks cell");
  }
}

// Replaces one CSV cell of the trace text, addressed by the same 1-based (row, column)
// coordinates the reader's malformed-cell diagnostics name.
std::string ReplaceCell(const std::string& text, size_t row, size_t column,
                        const std::string& replacement) {
  std::istringstream lines(text);
  std::string line, out;
  size_t r = 0;
  bool replaced = false;
  while (std::getline(lines, line)) {
    if (++r == row) {
      std::vector<std::string> cells;
      std::string cell;
      std::istringstream split(line);
      while (std::getline(split, cell, ',')) {
        cells.push_back(cell);
      }
      cells.at(column - 1) = replacement;
      line.clear();
      for (size_t i = 0; i < cells.size(); ++i) {
        if (i > 0) {
          line += ',';
        }
        line += cells[i];
      }
      replaced = true;
    }
    out += line;
    out += '\n';
  }
  EXPECT_TRUE(replaced) << "row " << row << " not present in trace text";
  return out;
}

TEST(TraceIoDeathTest, RejectsMalformedNumericCells) {
  // A bare std::stod on any of these would throw an uncaught exception — a crash, not the
  // diagnostic rejection malformed traces are promised. Every double-valued column
  // (weight=2, arrival_time=3, timeout=4, first demand=7) must fail through the checked
  // parse, naming the exact row and column.
  std::vector<Task> tasks = SampleWorkload(2);
  std::stringstream v2;
  ASSERT_TRUE(WriteTrace(v2, tasks, Grid()));
  const std::string text = v2.str();
  for (size_t column : {size_t{2}, size_t{3}, size_t{4}, size_t{7}}) {
    for (const char* bad : {"abc", "1.5x", " 1.5", "", "1e999"}) {
      SCOPED_TRACE(std::string("column ") + std::to_string(column) + " cell '" + bad + "'");
      std::stringstream in(ReplaceCell(text, 3, column, bad));
      EXPECT_DEATH(ReadTrace(in, Grid()),
                   "malformed numeric cell at trace row 3 column " + std::to_string(column));
    }
  }
  // The second data row reports its own coordinates.
  std::stringstream in(ReplaceCell(text, 4, 2, "nope"));
  EXPECT_DEATH(ReadTrace(in, Grid()), "malformed numeric cell at trace row 4 column 2");
}

TEST(TraceIoDeathTest, RejectsNonFiniteOrNegativeArrivalTime) {
  // strtod parses all three cells, so they pass the numeric check; an arrival must still be
  // a finite, non-negative instant, and the rejection names the row and the column.
  std::vector<Task> tasks = SampleWorkload(2);
  std::stringstream v2;
  ASSERT_TRUE(WriteTrace(v2, tasks, Grid()));
  const std::string text = v2.str();
  for (const char* bad : {"inf", "nan", "-5"}) {
    SCOPED_TRACE(std::string("cell '") + bad + "'");
    std::stringstream in(ReplaceCell(text, 4, 3, bad));
    EXPECT_DEATH(ReadTrace(in, Grid()), "arrival_time out of range at trace row 4 column 3");
  }
}

TEST(TraceIoDeathTest, RejectsMalformedIdCell) {
  std::vector<Task> tasks = SampleWorkload(1);
  std::stringstream v2;
  ASSERT_TRUE(WriteTrace(v2, tasks, Grid()));
  const std::string text = v2.str();
  // "abc"/"12x"/" 7"/empty are junk; the last is one past int64 max (stoll would throw
  // std::out_of_range, strtoll reports ERANGE).
  for (const char* bad : {"abc", "12x", " 7", "", "9223372036854775808"}) {
    SCOPED_TRACE(std::string("cell '") + bad + "'");
    std::stringstream in(ReplaceCell(text, 3, 1, bad));
    EXPECT_DEATH(ReadTrace(in, Grid()), "malformed integer cell at trace row 3 column 1");
  }
}

TEST(TraceIoDeathTest, RejectsMalformedCountCell) {
  std::vector<Task> tasks = SampleWorkload(1);
  std::stringstream v2;
  ASSERT_TRUE(WriteTrace(v2, tasks, Grid()));
  const std::string text = v2.str();
  // "-1" matters most: strtoull silently wraps it to 18446744073709551615, which would turn
  // into an absurd most-recent-blocks request instead of a rejection. The last is one past
  // uint64 max (ERANGE).
  for (const char* bad : {"-1", "3.5", "abc", "", "18446744073709551616"}) {
    SCOPED_TRACE(std::string("cell '") + bad + "'");
    std::stringstream in(ReplaceCell(text, 3, 5, bad));
    EXPECT_DEATH(ReadTrace(in, Grid()), "malformed count cell at trace row 3 column 5");
  }
}

TEST(TraceIoDeathTest, RejectsMalformedGridOrderHeaderCell) {
  std::vector<Task> tasks = SampleWorkload(1);
  std::stringstream v2;
  ASSERT_TRUE(WriteTrace(v2, tasks, Grid()));
  std::stringstream in(ReplaceCell(v2.str(), 1, 2, "abc"));
  EXPECT_DEATH(ReadTrace(in, Grid()), "malformed numeric cell at trace row 1 column 2");
}

TEST(TraceIoDeathTest, RejectsPerturbedGridOrderHeaderCell) {
  // A syntactically valid order one ulp off the grid's must be rejected by the bit-pattern
  // comparison — a tolerance here would silently accept a neighboring grid, and every
  // demand in the file would be charged at the wrong Renyi order.
  std::vector<Task> tasks = SampleWorkload(1);
  std::stringstream v2;
  ASSERT_TRUE(WriteTrace(v2, tasks, Grid()));
  std::ostringstream perturbed;
  perturbed.precision(17);
  perturbed << std::nextafter(Grid()->order(0), std::numeric_limits<double>::infinity());
  std::stringstream in(ReplaceCell(v2.str(), 1, 2, perturbed.str()));
  EXPECT_DEATH(ReadTrace(in, Grid()), "trace grid order mismatch");
}

TEST(TraceIoDeathTest, RejectsReorderedColumnHeader) {
  // The row parse is positional; a header whose fixed columns moved must be rejected, not
  // silently read with a demand or block list pulled from the wrong cell.
  std::vector<Task> tasks = SampleWorkload(1);
  std::stringstream v2;
  ASSERT_TRUE(WriteTrace(v2, tasks, Grid()));
  std::string text = v2.str();
  size_t prefix = text.find("num_recent_blocks,blocks");
  ASSERT_NE(prefix, std::string::npos);
  text.replace(prefix, 24, "blocks,num_recent_blocks");
  std::stringstream tampered(text);
  EXPECT_DEATH(ReadTrace(tampered, Grid()), "trace column header mismatch");
}

}  // namespace
}  // namespace dpack
