#include "core/phc.hpp"

#include <gtest/gtest.h>

namespace llmq::core {
namespace {

using table::Schema;
using table::Table;

// The §3.2 worst case (Fig 1a): first field unique, remaining identical.
Table fig1a_table(std::size_t n, std::size_t m) {
  std::vector<std::string> names;
  for (std::size_t c = 0; c < m; ++c) names.push_back("f" + std::to_string(c));
  Table t(Schema::of_names(names));
  for (std::size_t r = 0; r < n; ++r) {
    std::vector<std::string> row;
    row.push_back("u" + std::to_string(r));  // unique first field
    for (std::size_t c = 1; c < m; ++c) row.push_back("v");
    t.append_row(std::move(row));
  }
  return t;
}

TEST(Phc, SingleRowIsZero) {
  Table t(Schema::of_names({"a"}));
  t.append_row({"x"});
  EXPECT_DOUBLE_EQ(phc(t, Ordering::identity(1, 1), LengthMeasure::Unit), 0.0);
}

TEST(Phc, Fig1aOriginalOrderIsZero) {
  const auto t = fig1a_table(5, 4);
  EXPECT_DOUBLE_EQ(phc(t, Ordering::identity(5, 4), LengthMeasure::Unit), 0.0);
}

TEST(Phc, Fig1aBetterOrderingScoresNm) {
  // Placing the m-1 constant fields first yields (n-1)*(m-1) with unit
  // lengths — exactly the paper's Fig 1a analysis.
  const std::size_t n = 5, m = 4;
  const auto t = fig1a_table(n, m);
  const std::vector<std::size_t> fields{1, 2, 3, 0};
  std::vector<std::size_t> rows(n);
  for (std::size_t i = 0; i < n; ++i) rows[i] = i;
  const auto o = Ordering::fixed_fields(rows, fields);
  EXPECT_DOUBLE_EQ(phc(t, o, LengthMeasure::Unit),
                   static_cast<double>((n - 1) * (m - 1)));
}

TEST(Phc, PrefixBreaksAtFirstMismatch) {
  Table t(Schema::of_names({"a", "b", "c"}));
  t.append_row({"s", "s", "s"});
  t.append_row({"s", "x", "s"});  // matches a, breaks at b; c must NOT count
  EXPECT_DOUBLE_EQ(phc(t, Ordering::identity(2, 3), LengthMeasure::Unit), 1.0);
}

TEST(Phc, FirstFieldMismatchScoresZeroDespiteLaterMatches) {
  Table t(Schema::of_names({"a", "b"}));
  t.append_row({"p", "shared"});
  t.append_row({"q", "shared"});
  EXPECT_DOUBLE_EQ(phc(t, Ordering::identity(2, 2), LengthMeasure::Unit), 0.0);
}

TEST(Phc, ComparesOnlyAdjacentRows) {
  Table t(Schema::of_names({"a"}));
  t.append_row({"v"});
  t.append_row({"w"});
  t.append_row({"v"});  // matches row 0 but not its predecessor row 1
  EXPECT_DOUBLE_EQ(phc(t, Ordering::identity(3, 1), LengthMeasure::Unit), 0.0);
}

TEST(Phc, TokenMeasureUsesTokenCounts) {
  Table t(Schema::of_names({"a"}));
  t.append_row({"two words"});
  t.append_row({"two words"});
  // "two words" = 2 tokens -> hit of 4.
  EXPECT_DOUBLE_EQ(phc(t, Ordering::identity(2, 1), LengthMeasure::Tokens), 4.0);
}

TEST(Phc, FieldAndValueModeRejectsCrossFieldMatch) {
  Table t(Schema::of_names({"a", "b"}));
  t.append_row({"v", "w"});
  t.append_row({"x", "v"});
  // Row 2 ordered (b, a) puts "v" first, positionally equal to row 1's "v"
  // from field a: equal values under different fields share no bytes.
  const Ordering o({0, 1}, {{0, 1}, {1, 0}});
  EXPECT_DOUBLE_EQ(phc(t, o, LengthMeasure::Unit), 0.0);
}

TEST(Phc, BreakdownAccountsEveryRow) {
  Table t(Schema::of_names({"a"}));
  t.append_row({"v"});
  t.append_row({"v"});
  t.append_row({"v"});
  const auto b = phc_breakdown(t, Ordering::identity(3, 1), LengthMeasure::Unit);
  EXPECT_DOUBLE_EQ(b.total, 2.0);
  EXPECT_EQ(b.rows_with_hits, 2u);
  ASSERT_EQ(b.per_row.size(), 3u);
  EXPECT_DOUBLE_EQ(b.per_row[0], 0.0);
  EXPECT_DOUBLE_EQ(b.per_row[1], 1.0);
  // Chargeable content excludes the first (cold) row.
  EXPECT_DOUBLE_EQ(b.max_possible, 2.0);
  EXPECT_DOUBLE_EQ(b.hit_fraction(), 1.0);
}

TEST(Phc, HitFractionPartial) {
  Table t(Schema::of_names({"a", "b"}));
  t.append_row({"v", "p"});
  t.append_row({"v", "q"});
  const auto b = phc_breakdown(t, Ordering::identity(2, 2), LengthMeasure::Unit);
  EXPECT_DOUBLE_EQ(b.total, 1.0);
  EXPECT_DOUBLE_EQ(b.max_possible, 2.0);
  EXPECT_DOUBLE_EQ(b.hit_fraction(), 0.5);
}

TEST(TokenPhr, SequentialSharing) {
  std::vector<std::vector<std::uint32_t>> reqs{
      {1, 2, 3, 4}, {1, 2, 3, 9}, {1, 2, 3, 9}, {7, 8}};
  const auto r = token_phr(reqs);
  EXPECT_EQ(r.total_tokens, 14u);
  EXPECT_EQ(r.hit_tokens, 3u + 4u + 0u);
  EXPECT_NEAR(r.rate(), 7.0 / 14.0, 1e-12);
}

TEST(TokenPhr, EmptyAndSingle) {
  EXPECT_DOUBLE_EQ(token_phr({}).rate(), 0.0);
  EXPECT_DOUBLE_EQ(token_phr({{1, 2}}).rate(), 0.0);
}

}  // namespace
}  // namespace llmq::core
