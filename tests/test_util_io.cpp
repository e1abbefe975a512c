#include <gtest/gtest.h>

#include <filesystem>
#include <fstream>
#include <iterator>
#include <string>

#include "util/csv.hpp"
#include "util/stringutil.hpp"

namespace nh::util {
namespace {

// ---- stringutil -----------------------------------------------------------

TEST(StringUtil, Trim) {
  EXPECT_EQ(trim("  a b  "), "a b");
  EXPECT_EQ(trim("\t\n"), "");
  EXPECT_EQ(trim(""), "");
}

TEST(StringUtil, Split) {
  const auto parts = split("a,b,,c", ',');
  ASSERT_EQ(parts.size(), 4u);
  EXPECT_EQ(parts[2], "");
}

TEST(StringUtil, ParseDouble) {
  EXPECT_DOUBLE_EQ(parseDouble(" 1.5e-9 "), 1.5e-9);
  EXPECT_THROW(parseDouble("abc"), std::invalid_argument);
  EXPECT_THROW(parseDouble("1.5x"), std::invalid_argument);
}

// ---- csv --------------------------------------------------------------------

TEST(Csv, SerialisesHeaderAndRows) {
  CsvTable t({"a", "b"});
  t.addRow(std::vector<double>{1.5, 2.0});
  t.addRow({std::string("x"), std::string("y")});
  EXPECT_EQ(t.toString(), "a,b\n1.5,2\nx,y\n");
  EXPECT_EQ(t.rowCount(), 2u);
  EXPECT_DOUBLE_EQ(t.cellAsDouble(0, 0), 1.5);
  EXPECT_EQ(t.cell(1, 1), "y");
  EXPECT_THROW(t.cellAsDouble(1, 0), std::invalid_argument);
  EXPECT_THROW(t.cell(2, 0), std::out_of_range);
}

TEST(Csv, DoublesRoundTripAtFullPrecision) {
  CsvTable t({"v"});
  t.addRow(std::vector<double>{0.1 + 0.2});
  EXPECT_EQ(t.cellAsDouble(0, 0), 0.1 + 0.2);  // max_digits10, exact
}

TEST(Csv, RaggedRowThrows) {
  CsvTable t({"a", "b"});
  EXPECT_THROW(t.addRow(std::vector<double>{1.0}), std::invalid_argument);
}

TEST(Csv, SaveWritesToStringBytes) {
  const auto path = std::filesystem::temp_directory_path() / "nh_csv_test" /
                    "table.csv";  // parent directory is created
  CsvTable t({"p", "q"});
  t.addRow(std::vector<double>{3.25, -1e-9});
  t.save(path);
  std::ifstream in(path, std::ios::binary);
  const std::string bytes((std::istreambuf_iterator<char>(in)),
                          std::istreambuf_iterator<char>());
  EXPECT_EQ(bytes, t.toString());
  std::filesystem::remove_all(path.parent_path());
}

}  // namespace
}  // namespace nh::util
