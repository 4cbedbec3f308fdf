#include "table/table.hpp"

#include <gtest/gtest.h>

#include <stdexcept>

#include "table/value.hpp"

namespace llmq::table {
namespace {

Table make_test_table() {
  Table t(Schema::of_names({"id", "name", "city"}));
  t.append_row({"1", "ann", "berlin"});
  t.append_row({"2", "bob", "berlin"});
  t.append_row({"3", "ann", "munich"});
  return t;
}

TEST(Schema, DuplicateNamesRejected) {
  EXPECT_THROW(Schema::of_names({"a", "a"}), std::invalid_argument);
}

TEST(Schema, IndexLookup) {
  const auto s = Schema::of_names({"x", "y"});
  EXPECT_EQ(s.index_of("y"), 1u);
  EXPECT_FALSE(s.index_of("z").has_value());
  EXPECT_EQ(s.require("x"), 0u);
  EXPECT_THROW(s.require("nope"), std::out_of_range);
}

TEST(Table, AppendAndAccess) {
  const auto t = make_test_table();
  EXPECT_EQ(t.num_rows(), 3u);
  EXPECT_EQ(t.num_cols(), 3u);
  EXPECT_EQ(t.cell(1, 1), "bob");
  EXPECT_EQ(t.column(2)[2], "munich");
}

TEST(Table, AppendRowArityMismatchThrows) {
  Table t(Schema::of_names({"a", "b"}));
  EXPECT_THROW(t.append_row({"only-one"}), std::invalid_argument);
}

TEST(Table, RowMaterialization) {
  const auto t = make_test_table();
  const auto r = t.row(2);
  EXPECT_EQ(r, (std::vector<std::string>{"3", "ann", "munich"}));
}

TEST(Table, TakeRowsReorders) {
  const auto t = make_test_table();
  const auto sub = t.take_rows({2, 0});
  EXPECT_EQ(sub.num_rows(), 2u);
  EXPECT_EQ(sub.cell(0, 1), "ann");
  EXPECT_EQ(sub.cell(0, 2), "munich");
  EXPECT_EQ(sub.cell(1, 0), "1");
}

TEST(Table, ProjectByIndexAndName) {
  const auto t = make_test_table();
  const auto p = t.project(std::vector<std::size_t>{2, 0});
  EXPECT_EQ(p.schema().field(0).name, "city");
  EXPECT_EQ(p.cell(0, 1), "1");
  const auto q = t.project(std::vector<std::string>{"name"});
  EXPECT_EQ(q.num_cols(), 1u);
  EXPECT_EQ(q.cell(1, 0), "bob");
}

TEST(Table, ProjectRejectsNoColumns) {
  const auto t = make_test_table();
  EXPECT_THROW(t.project(std::vector<std::size_t>{}), std::invalid_argument);
  EXPECT_THROW(t.project(std::vector<std::string>{}), std::invalid_argument);
}

TEST(Table, HeadClamps) {
  const auto t = make_test_table();
  EXPECT_EQ(t.head(2).num_rows(), 2u);
  EXPECT_EQ(t.head(99).num_rows(), 3u);
}

TEST(Table, SortedRowOrderLexicographic) {
  const auto t = make_test_table();
  // Sort by (city, name): berlin/ann, berlin/bob, munich/ann.
  const auto order = t.sorted_row_order({2, 1});
  EXPECT_EQ(order, (std::vector<std::size_t>{0, 1, 2}));
  // Sort by (name, city): ann/berlin, ann/munich, bob/berlin.
  const auto order2 = t.sorted_row_order({1, 2});
  EXPECT_EQ(order2, (std::vector<std::size_t>{0, 2, 1}));
}

TEST(Table, EmptyTableBasics) {
  Table t(Schema::of_names({"a"}));
  EXPECT_EQ(t.num_rows(), 0u);
  EXPECT_TRUE(t.sorted_row_order({0}).empty());
}

TEST(Value, ParseInt) {
  EXPECT_EQ(parse_int("42"), 42);
  EXPECT_EQ(parse_int(" -7 "), -7);
  EXPECT_FALSE(parse_int("4.2").has_value());
  EXPECT_FALSE(parse_int("abc").has_value());
  EXPECT_FALSE(parse_int("").has_value());
}

TEST(Value, ParseDouble) {
  EXPECT_DOUBLE_EQ(parse_double("2.5").value(), 2.5);
  EXPECT_DOUBLE_EQ(parse_double("-1e3").value(), -1000.0);
  EXPECT_FALSE(parse_double("1.2.3").has_value());
}

}  // namespace
}  // namespace llmq::table
