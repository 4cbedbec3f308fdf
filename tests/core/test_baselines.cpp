#include "core/baselines.hpp"

#include <gtest/gtest.h>

#include <optional>

#include "core/phc.hpp"
#include "core/schedule.hpp"

namespace llmq::core {
namespace {

using table::Schema;
using table::Table;

Table sample() {
  Table t(Schema::of_names({"id", "group"}));
  t.append_row({"3", "b"});
  t.append_row({"1", "a"});
  t.append_row({"2", "a"});
  t.append_row({"4", "b"});
  return t;
}

TEST(Baselines, OriginalIsIdentity) {
  const auto t = sample();
  const auto o = original_ordering(t);
  EXPECT_TRUE(o.validate(4, 2));
  EXPECT_EQ(o.row_order(), (std::vector<std::size_t>{0, 1, 2, 3}));
}

TEST(Baselines, SortedOriginalFieldsSorts) {
  const auto t = sample();
  const auto o = sorted_original_fields(t);
  // Lexicographic by (id, group): 1,2,3,4.
  EXPECT_EQ(o.row_order(), (std::vector<std::size_t>{1, 2, 0, 3}));
}

TEST(Baselines, StatsFixedPutsRepetitiveFieldFirst) {
  const auto t = sample();
  const auto o = stats_fixed_ordering(t);
  // "group" has card 2 over 4 rows; "id" is unique — group must lead.
  EXPECT_EQ(o.fields_at(0)[0], 1u);
  // Rows sorted by group: the two 'a's adjacent, two 'b's adjacent.
  const double score = phc(t, o, LengthMeasure::Unit);
  EXPECT_DOUBLE_EQ(score, 2.0);
}

TEST(Baselines, StatsFixedBeatsOriginalHere) {
  const auto t = sample();
  EXPECT_GT(phc(t, stats_fixed_ordering(t), LengthMeasure::Unit),
            phc(t, original_ordering(t), LengthMeasure::Unit));
}

TEST(Baselines, RandomOrderingValidates) {
  const auto t = sample();
  util::Rng rng(3);
  for (int i = 0; i < 10; ++i)
    EXPECT_TRUE(random_ordering(t, rng).validate(4, 2));
}

TEST(PolicyFacade, RoundTripNames) {
  for (Policy p : {Policy::Original, Policy::SortedFixed, Policy::StatsFixed,
                   Policy::Ggr, Policy::Ophr}) {
    const auto name = to_string(p);
    ASSERT_TRUE(policy_from_string(name).has_value()) << name;
    EXPECT_EQ(*policy_from_string(name), p);
  }
  EXPECT_FALSE(policy_from_string("bogus").has_value());
}

TEST(PolicyFacade, PlansEveryPolicy) {
  const auto t = sample();
  table::FdSet fds;
  for (Policy p : {Policy::Original, Policy::SortedFixed, Policy::StatsFixed,
                   Policy::Ggr}) {
    PlanRequest req;
    req.policy = p;
    req.ggr.measure = LengthMeasure::Unit;
    const auto plan = plan_ordering(t, fds, req);
    EXPECT_TRUE(plan.ordering.validate(4, 2)) << to_string(p);
    EXPECT_FALSE(plan.budget_exhausted);
  }
}

TEST(PolicyFacade, OnlyThePlannersReadCodes) {
  // The baselines read the table alone; GGR and OPHR ask for the codes
  // once, and plan the same ordering as the encoding overload.
  const auto t = sample();
  const table::FdSet fds;
  for (Policy p : {Policy::Original, Policy::SortedFixed, Policy::StatsFixed,
                   Policy::Ggr, Policy::Ophr}) {
    PlanRequest req;
    req.policy = p;
    std::optional<EncodedTable> v;
    int calls = 0;
    const auto plan =
        plan_ordering(t, fds, req, [&]() -> const EncodedTable& {
          ++calls;
          return v.emplace(t);
        });
    const bool planner = p == Policy::Ggr || p == Policy::Ophr;
    EXPECT_EQ(calls, planner ? 1 : 0) << to_string(p);
    const auto again = plan_ordering(t, fds, req);
    for (std::size_t pos = 0; pos < t.num_rows(); ++pos) {
      EXPECT_EQ(plan.ordering.row_at(pos), again.ordering.row_at(pos));
      EXPECT_EQ(plan.ordering.fields_at(pos), again.ordering.fields_at(pos));
    }
    EXPECT_EQ(plan.planner_phc, again.planner_phc) << to_string(p);
  }
}

TEST(PolicyFacade, OphrOverBudgetFallsBackToOriginal) {
  // One node short of what the solve needs, the facade gives up and plans
  // the Original ordering; with exactly enough it plans OPHR's.
  Table t(Schema::of_names({"a", "b", "c"}));
  util::Rng rng(9);
  for (int i = 0; i < 6; ++i)
    t.append_row({std::string(1, static_cast<char>('a' + rng.next_below(2))),
                  std::string(1, static_cast<char>('a' + rng.next_below(2))),
                  std::string(1, static_cast<char>('a' + rng.next_below(2)))});
  const auto solved = ophr(t);
  ASSERT_TRUE(solved.has_value());
  PlanRequest req;
  req.policy = Policy::Ophr;
  req.ophr.max_nodes = solved->nodes_explored;
  const auto plan = plan_ordering(t, table::FdSet{}, req);
  EXPECT_FALSE(plan.budget_exhausted);
  EXPECT_EQ(plan.planner_phc, solved->phc);

  req.ophr.max_nodes = solved->nodes_explored - 1;
  const auto fallback = plan_ordering(t, table::FdSet{}, req);
  EXPECT_TRUE(fallback.budget_exhausted);
  EXPECT_EQ(fallback.planner_phc, 0.0);
  const auto original = original_ordering(t);
  for (std::size_t pos = 0; pos < t.num_rows(); ++pos) {
    EXPECT_EQ(fallback.ordering.row_at(pos), original.row_at(pos));
    EXPECT_EQ(fallback.ordering.fields_at(pos), original.fields_at(pos));
  }
}

}  // namespace
}  // namespace llmq::core
