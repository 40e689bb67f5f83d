#include "sim/report.hpp"

#include <gtest/gtest.h>

#include <sstream>
#include <stdexcept>

namespace sa::sim {
namespace {

TEST(Table, StoresRows) {
  Table t("demo", {"a", "b"});
  t.add_row({std::string("x"), 1.5});
  t.add_row({std::string("y"), std::int64_t{7}});
  EXPECT_EQ(t.rows(), 2u);
  EXPECT_EQ(std::get<std::string>(t.row(0)[0]), "x");
  EXPECT_EQ(std::get<std::int64_t>(t.row(1)[1]), 7);
}

TEST(Table, RejectsWrongArity) {
  Table t("demo", {"a", "b"});
  EXPECT_THROW(t.add_row({1.0}), std::invalid_argument);
  EXPECT_THROW(t.add_row({1.0, 2.0, 3.0}), std::invalid_argument);
}

TEST(Table, PrintContainsTitleHeadersAndValues) {
  Table t("My Experiment", {"name", "value"});
  t.add_row({std::string("alpha"), 2.0});
  std::ostringstream os;
  t.print(os);
  const std::string out = os.str();
  EXPECT_NE(out.find("My Experiment"), std::string::npos);
  EXPECT_NE(out.find("name"), std::string::npos);
  EXPECT_NE(out.find("value"), std::string::npos);
  EXPECT_NE(out.find("alpha"), std::string::npos);
  EXPECT_NE(out.find("2.000"), std::string::npos);  // default precision 3
}

TEST(Table, PrecisionIsPerColumn) {
  Table t("p", {"a", "b"});
  t.precision(0, 1).precision(1, 4);
  t.add_row({1.23456, 1.23456});
  std::ostringstream os;
  t.print(os);
  EXPECT_NE(os.str().find("1.2"), std::string::npos);
  EXPECT_NE(os.str().find("1.2346"), std::string::npos);
}

TEST(Table, IntegerCellsPrintWithoutDecimals) {
  Table t("ints", {"n"});
  t.add_row({std::int64_t{42}});
  std::ostringstream os;
  t.print(os);
  EXPECT_EQ(os.str(), "== ints ==\n n\n--\n42\n\n");
}

}  // namespace
}  // namespace sa::sim
