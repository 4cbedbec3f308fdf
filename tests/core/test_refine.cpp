#include "core/refine.hpp"

#include <gtest/gtest.h>

#include "core/baselines.hpp"
#include "core/ggr.hpp"
#include "util/rng.hpp"

namespace llmq::core {
namespace {

using table::Schema;
using table::Table;

Table random_table(util::Rng& rng, std::size_t n, std::size_t m,
                   int alphabet) {
  std::vector<std::string> names;
  for (std::size_t c = 0; c < m; ++c) names.push_back("f" + std::to_string(c));
  Table t(Schema::of_names(names));
  for (std::size_t r = 0; r < n; ++r) {
    std::vector<std::string> row;
    for (std::size_t c = 0; c < m; ++c)
      row.push_back(std::string(
          1, static_cast<char>('a' + rng.next_below(alphabet))));
    t.append_row(std::move(row));
  }
  return t;
}

RefineOptions unit_opts() {
  RefineOptions o;
  o.measure = LengthMeasure::Unit;
  return o;
}

TEST(Refine, NeverDecreasesPhc) {
  util::Rng rng(31);
  for (int trial = 0; trial < 15; ++trial) {
    const auto t = random_table(rng, 24, 3, 2);
    const auto start = random_ordering(t, rng);
    const auto r = refine_ordering(t, start, unit_opts());
    EXPECT_GE(r.phc_after + 1e-9, r.phc_before) << trial;
    EXPECT_TRUE(r.ordering.validate(t.num_rows(), t.num_cols()));
  }
}

TEST(Refine, ReportedPhcsMatchMetric) {
  util::Rng rng(32);
  const auto t = random_table(rng, 30, 4, 3);
  const auto start = original_ordering(t);
  const auto r = refine_ordering(t, start, unit_opts());
  EXPECT_DOUBLE_EQ(r.phc_before, phc(t, start, LengthMeasure::Unit));
  EXPECT_DOUBLE_EQ(r.phc_after, phc(t, r.ordering, LengthMeasure::Unit));
}

TEST(Refine, FieldMoveAlignsWithPredecessor) {
  // Two rows sharing a value in field b only; the identity ordering scores
  // 0 (a differs first), refinement should flip row 2's fields to (b, a).
  Table t(Schema::of_names({"a", "b"}));
  t.append_row({"x", "s"});
  t.append_row({"y", "s"});
  auto opts = unit_opts();
  const auto r = refine_ordering(t, original_ordering(t), opts);
  EXPECT_DOUBLE_EQ(r.phc_after, 1.0);
  EXPECT_GT(r.moves_applied, 0u);
}

TEST(Refine, RowSwapGroupsEqualRows) {
  // v, w, v: swapping the last two groups the v's.
  Table t(Schema::of_names({"a"}));
  t.append_row({"v"});
  t.append_row({"w"});
  t.append_row({"v"});
  const auto r = refine_ordering(t, original_ordering(t), unit_opts());
  EXPECT_DOUBLE_EQ(r.phc_after, 1.0);
}

TEST(Refine, FixedPointIsIdempotent) {
  util::Rng rng(33);
  const auto t = random_table(rng, 20, 3, 2);
  auto opts = unit_opts();
  opts.max_passes = 16;
  const auto first = refine_ordering(t, original_ordering(t), opts);
  const auto second = refine_ordering(t, first.ordering, opts);
  EXPECT_DOUBLE_EQ(second.phc_after, first.phc_after);
  EXPECT_EQ(second.moves_applied, 0u);
}

TEST(Refine, ImprovesRandomButRarelyGgr) {
  util::Rng rng(34);
  const auto t = random_table(rng, 40, 3, 2);
  GgrOptions go;
  go.measure = LengthMeasure::Unit;
  go.max_row_depth = -1;
  go.max_col_depth = -1;
  const auto g = ggr(t, go);
  const auto refined_ggr = refine_ordering(t, g.ordering, unit_opts());
  EXPECT_GE(refined_ggr.phc_after + 1e-9, g.phc);
  // From a random start the gains are large...
  const auto random_start = random_ordering(t, rng);
  const auto refined_rand = refine_ordering(t, random_start, unit_opts());
  const double rand_gain = refined_rand.phc_after - refined_rand.phc_before;
  // ...and strictly positive on this groupy table.
  EXPECT_GT(rand_gain, 0.0);
}

TEST(Refine, PassBudgetHonored) {
  util::Rng rng(36);
  const auto t = random_table(rng, 60, 3, 2);
  auto opts = unit_opts();
  opts.max_passes = 1;
  const auto r = refine_ordering(t, random_ordering(t, rng), opts);
  EXPECT_EQ(r.passes, 1u);
}

}  // namespace
}  // namespace llmq::core
