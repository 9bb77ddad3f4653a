// Reporting helpers: table layout.
#include <gtest/gtest.h>

#include <cstdio>

#include "report/table.hpp"

namespace emusim::report {
namespace {

TEST(Table, FormattersProduceFixedPrecision) {
  EXPECT_EQ(Table::num(3.14159, 2), "3.14");
  EXPECT_EQ(Table::num(1000.0), "1000.0");
  EXPECT_EQ(Table::num(0.5, 3), "0.500");
  EXPECT_EQ(Table::integer(-42), "-42");
  EXPECT_EQ(Table::integer(1LL << 40), "1099511627776");
}

TEST(Table, AccumulatesRows) {
  Table t("demo");
  t.columns({"a", "b"});
  t.row({"1", "2"}).row({"3", "4"});
  EXPECT_EQ(t.num_rows(), 2u);
  EXPECT_EQ(t.header().size(), 2u);
  EXPECT_EQ(t.rows()[1][0], "3");
}

TEST(Table, PrintsAlignedColumns) {
  Table t("title line");
  t.columns({"col", "wide_column"});
  t.row({"x", "1"});
  t.row({"longer", "2"});
  char buf[4096] = {};
  std::FILE* f = fmemopen(buf, sizeof buf, "w");
  ASSERT_NE(f, nullptr);
  t.print(f);
  std::fclose(f);
  const std::string out = buf;
  EXPECT_NE(out.find("title line"), std::string::npos);
  EXPECT_NE(out.find("wide_column"), std::string::npos);
  // Rows start in column 0 and the second column aligns across rows.
  const auto p1 = out.find("x");
  const auto p2 = out.find("longer");
  ASSERT_NE(p1, std::string::npos);
  ASSERT_NE(p2, std::string::npos);
}

}  // namespace
}  // namespace emusim::report
