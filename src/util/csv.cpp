#include "util/csv.hpp"

#include <fstream>
#include <sstream>
#include <stdexcept>

#include "util/stringutil.hpp"

namespace nh::util {

std::string formatDouble(double v) {
  std::ostringstream os;
  os.precision(17);
  os << v;
  return os.str();
}

CsvTable::CsvTable(std::vector<std::string> header) : header_(std::move(header)) {}

void CsvTable::addRow(const std::vector<std::string>& row) {
  if (row.size() != header_.size()) {
    throw std::invalid_argument("CsvTable::addRow: width mismatch");
  }
  rows_.push_back(row);
}

void CsvTable::addRow(const std::vector<double>& row) {
  std::vector<std::string> cells;
  cells.reserve(row.size());
  for (double v : row) cells.push_back(formatDouble(v));
  addRow(cells);
}

const std::string& CsvTable::cell(std::size_t row, std::size_t col) const {
  return rows_.at(row).at(col);
}

double CsvTable::cellAsDouble(std::size_t row, std::size_t col) const {
  return parseDouble(cell(row, col), "csv cell");
}

std::string CsvTable::toString() const {
  std::ostringstream os;
  for (std::size_t i = 0; i < header_.size(); ++i) {
    if (i) os << ',';
    os << header_[i];
  }
  os << '\n';
  for (const auto& row : rows_) {
    for (std::size_t i = 0; i < row.size(); ++i) {
      if (i) os << ',';
      os << row[i];
    }
    os << '\n';
  }
  return os.str();
}

void CsvTable::save(const std::filesystem::path& path) const {
  if (path.has_parent_path()) {
    std::filesystem::create_directories(path.parent_path());
  }
  std::ofstream out(path);
  if (!out) throw std::runtime_error("CsvTable::save: cannot open " + path.string());
  out << toString();
  if (!out) throw std::runtime_error("CsvTable::save: write failed for " + path.string());
}

}  // namespace nh::util
