// Tabular experiment output.
//
// Every bench harness emits its figure/table as a `CsvTable`: a header row plus data rows,
// printed as aligned text.

#ifndef SRC_COMMON_CSV_H_
#define SRC_COMMON_CSV_H_

#include <ostream>
#include <string>
#include <vector>

namespace dpack {

class CsvTable {
 public:
  explicit CsvTable(std::vector<std::string> header);

  // Starts a new row. Subsequent Add* calls append cells to it.
  CsvTable& NewRow();
  CsvTable& Add(const std::string& cell);
  CsvTable& Add(double value);
  CsvTable& Add(int64_t value);
  CsvTable& Add(size_t value);

  // Writes a column-aligned plain-text table.
  void WriteAligned(std::ostream& os) const;

  // Writes the aligned form to stdout with a title banner.
  void Print(const std::string& title) const;

 private:
  std::vector<std::string> header_;
  std::vector<std::vector<std::string>> rows_;
};

// Formats a double compactly (up to 6 significant digits, no trailing zeros).
std::string FormatDouble(double value);

}  // namespace dpack

#endif  // SRC_COMMON_CSV_H_
