#pragma once
/// \file table.hpp
/// ASCII table printer for the benchmark harnesses: each figure bench prints
/// the same rows/series the paper reports, in an aligned monospace table.

#include <string>
#include <vector>

namespace nh::util {

/// Column-aligned ASCII table with a title, header and footer rule.
class AsciiTable {
 public:
  explicit AsciiTable(std::vector<std::string> header);

  void setTitle(std::string title) { title_ = std::move(title); }
  /// Append a pre-formatted row (width must match the header).
  void addRow(std::vector<std::string> row);
  /// Free-form footnote lines rendered under the table.
  void addNote(std::string note);

  /// Render to a string.
  std::string render() const;
  /// Render to stdout.
  void print() const;

  /// Format helpers used by the experiment tables.
  static std::string fixed(double v, int decimals);
  static std::string scientific(double v, int decimals);
  /// Engineering formatting with SI suffix (1.2e-9 s -> "1.2 ns").
  static std::string si(double v, const std::string& unit, int decimals = 2);
  /// Integer with thousands separators ("12,345").
  static std::string grouped(long long v);

 private:
  std::string title_;
  std::vector<std::string> header_;
  std::vector<std::vector<std::string>> rows_;
  std::vector<std::string> notes_;
};

}  // namespace nh::util
