#include <gtest/gtest.h>

#include <filesystem>
#include <fstream>

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

TEST(StringUtil, SplitWhitespace) {
  const auto parts = splitWhitespace("  1   2\t3 \n");
  ASSERT_EQ(parts.size(), 3u);
  EXPECT_EQ(parts[0], "1");
  EXPECT_EQ(parts[2], "3");
}

TEST(StringUtil, CaseHelpers) {
  EXPECT_TRUE(iequals("LRS", "lrs"));
  EXPECT_FALSE(iequals("LRS", "hrs"));
  EXPECT_EQ(toLower("AbC"), "abc");
}

TEST(StringUtil, ParseDouble) {
  EXPECT_DOUBLE_EQ(parseDouble(" 1.5e-9 "), 1.5e-9);
  EXPECT_THROW(parseDouble("abc"), std::invalid_argument);
  EXPECT_THROW(parseDouble("1.5x"), std::invalid_argument);
}

// ---- csv --------------------------------------------------------------------

TEST(Csv, RoundTrip) {
  CsvTable t({"a", "b"});
  t.addRow(std::vector<double>{1.5, 2.0});
  t.addRow({std::string("x"), std::string("y")});
  const CsvTable back = CsvTable::fromString(t.toString());
  EXPECT_EQ(back.rowCount(), 2u);
  EXPECT_DOUBLE_EQ(back.cellAsDouble(0, "a"), 1.5);
  EXPECT_EQ(back.cell(1, 1), "y");
}

TEST(Csv, ColumnAccess) {
  const CsvTable t = CsvTable::fromString("x,y\n1,2\n3,4\n");
  const auto ys = t.columnAsDouble("y");
  ASSERT_EQ(ys.size(), 2u);
  EXPECT_DOUBLE_EQ(ys[1], 4.0);
  EXPECT_THROW(t.columnIndex("z"), std::out_of_range);
}

TEST(Csv, RaggedRowThrows) {
  EXPECT_THROW(CsvTable::fromString("a,b\n1\n"), std::runtime_error);
  CsvTable t({"a", "b"});
  EXPECT_THROW(t.addRow(std::vector<double>{1.0}), std::invalid_argument);
}

TEST(Csv, SaveAndLoad) {
  const auto path = std::filesystem::temp_directory_path() / "nh_csv_test.csv";
  CsvTable t({"p"});
  t.addRow(std::vector<double>{3.25});
  t.save(path);
  const CsvTable back = CsvTable::load(path);
  EXPECT_DOUBLE_EQ(back.cellAsDouble(0, "p"), 3.25);
  std::filesystem::remove(path);
}

}  // namespace
}  // namespace nh::util
