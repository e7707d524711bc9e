#include "src/common/csv.h"

#include <algorithm>
#include <cstdio>
#include <iostream>

#include "src/common/check.h"

namespace dpack {

std::string FormatDouble(double value) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.6g", value);
  return std::string(buf);
}

CsvTable::CsvTable(std::vector<std::string> header) : header_(std::move(header)) {
  DPACK_CHECK(!header_.empty());
}

CsvTable& CsvTable::NewRow() {
  rows_.emplace_back();
  return *this;
}

CsvTable& CsvTable::Add(const std::string& cell) {
  DPACK_CHECK(!rows_.empty());
  DPACK_CHECK_MSG(rows_.back().size() < header_.size(), "row wider than header");
  rows_.back().push_back(cell);
  return *this;
}

CsvTable& CsvTable::Add(double value) { return Add(FormatDouble(value)); }

CsvTable& CsvTable::Add(int64_t value) { return Add(std::to_string(value)); }

CsvTable& CsvTable::Add(size_t value) { return Add(std::to_string(value)); }

void CsvTable::WriteAligned(std::ostream& os) const {
  std::vector<size_t> widths(header_.size(), 0);
  for (size_t i = 0; i < header_.size(); ++i) {
    widths[i] = header_[i].size();
  }
  for (const auto& row : rows_) {
    for (size_t i = 0; i < row.size(); ++i) {
      widths[i] = std::max(widths[i], row[i].size());
    }
  }
  auto write_row = [&](const std::vector<std::string>& row) {
    for (size_t i = 0; i < row.size(); ++i) {
      os << row[i];
      if (i + 1 < row.size()) {
        os << std::string(widths[i] - row[i].size() + 2, ' ');
      }
    }
    os << "\n";
  };
  write_row(header_);
  for (const auto& row : rows_) {
    write_row(row);
  }
}

void CsvTable::Print(const std::string& title) const {
  std::cout << "\n== " << title << " ==\n";
  WriteAligned(std::cout);
  std::cout.flush();
}

}  // namespace dpack
