#include "src/common/csv.h"

#include <sstream>

#include <gtest/gtest.h>

namespace dpack {
namespace {

TEST(CsvTableTest, AlignedOutputPadsEachColumnToItsWidestCell) {
  CsvTable table({"a", "b"});
  table.NewRow().Add(std::string("xyz")).Add(int64_t{2});
  table.NewRow().Add(1.5).Add(size_t{7});
  std::ostringstream os;
  table.WriteAligned(os);
  EXPECT_EQ(os.str(), "a    b\nxyz  2\n1.5  7\n");
}

TEST(CsvTableTest, AlignedOutputHasAllCells) {
  CsvTable table({"name", "value"});
  table.NewRow().Add(std::string("alpha")).Add(3.25);
  std::ostringstream os;
  table.WriteAligned(os);
  EXPECT_NE(os.str().find("alpha"), std::string::npos);
  EXPECT_NE(os.str().find("3.25"), std::string::npos);
}

TEST(FormatDoubleTest, CompactFormats) {
  EXPECT_EQ(FormatDouble(1.0), "1");
  EXPECT_EQ(FormatDouble(0.5), "0.5");
  EXPECT_EQ(FormatDouble(1234567.0), "1.23457e+06");
}

}  // namespace
}  // namespace dpack
