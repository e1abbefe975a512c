#pragma once
/// \file csv.hpp
/// Minimal CSV writer used to export benchmark series (figure data). No
/// quoting/escaping beyond what the project itself emits (plain
/// numeric/identifier fields).

#include <filesystem>
#include <string>
#include <vector>

namespace nh::util {

/// In-memory CSV table: a header row plus data rows of equal width.
class CsvTable {
 public:
  CsvTable() = default;
  explicit CsvTable(std::vector<std::string> header);

  const std::vector<std::string>& header() const { return header_; }
  std::size_t rowCount() const { return rows_.size(); }
  std::size_t columnCount() const { return header_.size(); }

  /// Append a row; width must match the header. Values are stringified
  /// with max_digits10 precision for doubles.
  void addRow(const std::vector<std::string>& row);
  void addRow(const std::vector<double>& row);

  const std::vector<std::string>& row(std::size_t i) const { return rows_[i]; }
  /// Cell accessors. Throw on bad access.
  const std::string& cell(std::size_t row, std::size_t col) const;
  double cellAsDouble(std::size_t row, std::size_t col) const;

  /// Serialise to a string ("a,b\n1,2\n").
  std::string toString() const;
  /// Write to \p path (creates parent directories). Throws on I/O error.
  void save(const std::filesystem::path& path) const;

 private:
  std::vector<std::string> header_;
  std::vector<std::vector<std::string>> rows_;
};

/// Format a double with enough digits to round-trip.
std::string formatDouble(double v);

}  // namespace nh::util
