#include "core/ophr.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <numeric>

#include "core/baselines.hpp"
#include "tokenizer/tokenizer.hpp"
#include "util/rng.hpp"

namespace llmq::core {
namespace {

using table::Schema;
using table::Table;

/// Brute force: maximum PHC over all row permutations x per-row field
/// permutations. Only viable for very small tables.
double brute_force_max_phc(const Table& t, LengthMeasure measure) {
  const std::size_t n = t.num_rows();
  const std::size_t m = t.num_cols();
  std::vector<std::size_t> rows(n);
  std::iota(rows.begin(), rows.end(), 0);

  std::vector<std::vector<std::size_t>> field_perms;
  std::vector<std::size_t> fields(m);
  std::iota(fields.begin(), fields.end(), 0);
  do {
    field_perms.push_back(fields);
  } while (std::next_permutation(fields.begin(), fields.end()));

  // Lengths straight from the strings, independent of the encoded view.
  const auto sq_len = [&](std::size_t r, std::size_t c) {
    const double l =
        measure == LengthMeasure::Unit
            ? 1.0
            : static_cast<double>(tokenizer::global_tokenizer().count(t.cell(r, c)));
    return l * l;
  };
  double best = 0.0;
  do {
    // For a fixed row order, the optimal per-row field permutation can be
    // chosen greedily row by row (each row's hit depends only on the
    // previous row's chosen permutation), so search permutations jointly
    // via DP over (row position, previous perm index).
    const std::size_t p = field_perms.size();
    std::vector<double> dp(p, 0.0);
    for (std::size_t pos = 1; pos < n; ++pos) {
      std::vector<double> next(p, -1.0);
      for (std::size_t prev = 0; prev < p; ++prev) {
        for (std::size_t cur = 0; cur < p; ++cur) {
          double hit = 0.0;
          for (std::size_t f = 0; f < m; ++f) {
            const auto pc = field_perms[prev][f];
            const auto cc = field_perms[cur][f];
            if (pc != cc) break;
            if (t.cell(rows[pos], cc) != t.cell(rows[pos - 1], pc)) break;
            hit += sq_len(rows[pos], cc);
          }
          next[cur] = std::max(next[cur], dp[prev] + hit);
        }
      }
      dp = std::move(next);
    }
    best = std::max(best, *std::max_element(dp.begin(), dp.end()));
  } while (std::next_permutation(rows.begin(), rows.end()));
  return best;
}

Table random_small_table(util::Rng& rng, std::size_t n, std::size_t m,
                         int alphabet) {
  std::vector<std::string> names;
  for (std::size_t c = 0; c < m; ++c) names.push_back("f" + std::to_string(c));
  Table t(Schema::of_names(names));
  for (std::size_t r = 0; r < n; ++r) {
    std::vector<std::string> row;
    for (std::size_t c = 0; c < m; ++c)
      row.push_back(std::string(1, static_cast<char>(
                                       'a' + rng.next_below(alphabet))));
    t.append_row(std::move(row));
  }
  return t;
}

TEST(Ophr, SingleRowZero) {
  Table t(Schema::of_names({"a", "b"}));
  t.append_row({"x", "y"});
  const auto r = ophr(t, {.measure = LengthMeasure::Unit});
  ASSERT_TRUE(r.has_value());
  EXPECT_DOUBLE_EQ(r->phc, 0.0);
  EXPECT_TRUE(r->ordering.validate(1, 2));
}

TEST(Ophr, SingleColumnGroupsValues) {
  Table t(Schema::of_names({"a"}));
  t.append_row({"v"});
  t.append_row({"w"});
  t.append_row({"v"});
  t.append_row({"v"});
  const auto r = ophr(t, {.measure = LengthMeasure::Unit});
  ASSERT_TRUE(r.has_value());
  EXPECT_DOUBLE_EQ(r->phc, 2.0);  // three v's grouped -> 2 hits
  EXPECT_DOUBLE_EQ(phc(t, r->ordering, LengthMeasure::Unit), 2.0);
}

TEST(Ophr, Fig1aRecoversOptimal) {
  // First field unique, rest constant: optimum is (n-1)*(m-1).
  const std::size_t n = 4, m = 3;
  Table t(Schema::of_names({"u", "c1", "c2"}));
  for (std::size_t r = 0; r < n; ++r)
    t.append_row({"u" + std::to_string(r), "v", "v"});
  const auto r = ophr(t, {.measure = LengthMeasure::Unit});
  ASSERT_TRUE(r.has_value());
  EXPECT_DOUBLE_EQ(r->phc, static_cast<double>((n - 1) * (m - 1)));
  EXPECT_DOUBLE_EQ(phc(t, r->ordering, LengthMeasure::Unit), r->phc);
}

TEST(Ophr, Fig1bPerRowReorderingBeatsFixed) {
  // Paper Fig 1b: three non-overlapping groups across three fields.
  // Optimal per-row ordering scores 3*(x-1); any fixed ordering only x-1.
  const std::size_t x = 3;
  Table t(Schema::of_names({"f1", "f2", "f3"}));
  std::size_t uid = 0;
  auto uniq = [&] { return "u" + std::to_string(uid++); };
  for (std::size_t i = 0; i < x; ++i) t.append_row({"G1", uniq(), uniq()});
  for (std::size_t i = 0; i < x; ++i) t.append_row({uniq(), "G2", uniq()});
  for (std::size_t i = 0; i < x; ++i) t.append_row({uniq(), uniq(), "G3"});
  const auto r = ophr(t, {.measure = LengthMeasure::Unit});
  ASSERT_TRUE(r.has_value());
  EXPECT_DOUBLE_EQ(r->phc, static_cast<double>(3 * (x - 1)));
}

TEST(Ophr, EmittedOrderingAchievesReportedPhc) {
  util::Rng rng(101);
  for (int trial = 0; trial < 20; ++trial) {
    const auto t = random_small_table(rng, 5, 3, 2);
    const auto r = ophr(t, {.measure = LengthMeasure::Unit});
    ASSERT_TRUE(r.has_value());
    EXPECT_TRUE(r->ordering.validate(t.num_rows(), t.num_cols()));
    // The emitted list realizes at least the computed S (boundary hits can
    // only add).
    EXPECT_GE(phc(t, r->ordering, LengthMeasure::Unit) + 1e-9, r->phc);
  }
}

TEST(Ophr, MatchesBruteForceOnTinyTables) {
  util::Rng rng(202);
  for (int trial = 0; trial < 15; ++trial) {
    const auto t = random_small_table(rng, 4, 2, 2);
    const auto r = ophr(t, {.measure = LengthMeasure::Unit});
    ASSERT_TRUE(r.has_value());
    const double brute = brute_force_max_phc(t, LengthMeasure::Unit);
    const double achieved = phc(t, r->ordering, LengthMeasure::Unit);
    EXPECT_NEAR(std::max(achieved, r->phc), brute, 1e-9)
        << "trial " << trial;
  }
}

TEST(Ophr, MatchesBruteForceThreeByThree) {
  util::Rng rng(303);
  for (int trial = 0; trial < 6; ++trial) {
    const auto t = random_small_table(rng, 3, 3, 2);
    const auto r = ophr(t, {.measure = LengthMeasure::Unit});
    ASSERT_TRUE(r.has_value());
    const double brute = brute_force_max_phc(t, LengthMeasure::Unit);
    EXPECT_NEAR(std::max(phc(t, r->ordering, LengthMeasure::Unit), r->phc),
                brute, 1e-9);
  }
}

TEST(Ophr, NodeBudgetIsExact) {
  // The budget counts sub-problems, not seconds: exactly the nodes an
  // unbudgeted solve explores return its result, one fewer gives up, on
  // every host.
  util::Rng rng(404);
  const auto t = random_small_table(rng, 6, 3, 2);
  const auto free = ophr(t, {.measure = LengthMeasure::Unit});
  ASSERT_TRUE(free.has_value());
  ASSERT_GT(free->nodes_explored, 1u);
  const auto enough = ophr(t, {.measure = LengthMeasure::Unit,
                               .max_nodes = free->nodes_explored});
  ASSERT_TRUE(enough.has_value());
  EXPECT_EQ(enough->phc, free->phc);
  EXPECT_EQ(enough->nodes_explored, free->nodes_explored);
  EXPECT_EQ(enough->memo_hits, free->memo_hits);
  for (std::size_t pos = 0; pos < t.num_rows(); ++pos) {
    EXPECT_EQ(enough->ordering.row_at(pos), free->ordering.row_at(pos));
    EXPECT_EQ(enough->ordering.fields_at(pos), free->ordering.fields_at(pos));
  }
  EXPECT_FALSE(ophr(t, {.measure = LengthMeasure::Unit,
                        .max_nodes = free->nodes_explored - 1})
                   .has_value());
}

TEST(Ophr, EmptyTableThrows) {
  Table t(Schema::of_names({"a"}));
  EXPECT_THROW(ophr(t), std::invalid_argument);
}

TEST(Ophr, TokenMeasureWeighsSquaredTokenLengths) {
  Table t(Schema::of_names({"short", "long"}));
  const std::string shared_long = "a much longer shared description value";
  t.append_row({"aa", shared_long});
  t.append_row({"aa", shared_long});
  t.append_row({"aa", "something entirely different here"});
  const auto r = ophr(t, {.measure = LengthMeasure::Tokens});
  ASSERT_TRUE(r.has_value());
  // Optimal: "short" leads every row ("aa" shared by all three rows), and
  // the two long-sharing rows are adjacent: PHC = 2*len(aa)^2 + len(long)^2.
  const auto& tok = tokenizer::global_tokenizer();
  const double l_aa = static_cast<double>(tok.count("aa"));
  const double l_long = static_cast<double>(tok.count(shared_long));
  EXPECT_DOUBLE_EQ(phc(t, r->ordering, LengthMeasure::Tokens),
                   2 * l_aa * l_aa + l_long * l_long);
}

}  // namespace
}  // namespace llmq::core
