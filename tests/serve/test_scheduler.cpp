#include "serve/scheduler.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <set>

#include "core/ggr.hpp"
#include "util/rng.hpp"

namespace llmq::serve {
namespace {

using table::Schema;
using table::Table;

Table groupy_table(util::Rng& rng, std::size_t n, std::size_t m,
                   int alphabet) {
  std::vector<std::string> names;
  for (std::size_t c = 0; c < m; ++c) names.push_back("f" + std::to_string(c));
  Table t(Schema::of_names(names));
  for (std::size_t r = 0; r < n; ++r) {
    std::vector<std::string> row;
    for (std::size_t c = 0; c < m; ++c)
      row.push_back(
          std::string(1, static_cast<char>('a' + rng.next_below(alphabet))));
    t.append_row(std::move(row));
  }
  return t;
}

std::vector<Arrival> sequential_arrivals(std::size_t n, double gap = 0.1,
                                         std::uint32_t tenants = 1) {
  std::vector<Arrival> out;
  for (std::size_t i = 0; i < n; ++i) {
    Arrival a;
    a.id = i;
    a.time = gap * static_cast<double>(i + 1);
    a.row = i;
    a.tenant = static_cast<std::uint32_t>(i % tenants);
    out.push_back(a);
  }
  return out;
}

SchedulerOptions fifo_opts(std::size_t window, double max_wait = 0.0) {
  SchedulerOptions o;
  o.policy = Policy::Fifo;
  o.window_rows = window;
  o.max_wait_seconds = max_wait;
  return o;
}

TEST(Scheduler, RowBoundWindowing) {
  util::Rng rng(1);
  const Table t = groupy_table(rng, 10, 2, 3);
  const table::FdSet fds;
  OnlineScheduler s(t, fds, fifo_opts(4));
  for (const auto& a : sequential_arrivals(10)) s.push(a);
  EXPECT_EQ(s.buffered(), 10u);

  auto w1 = s.pop_ready(1.0);
  ASSERT_TRUE(w1.has_value());
  EXPECT_EQ(w1->arrivals.size(), 4u);
  auto w2 = s.pop_ready(1.0);
  ASSERT_TRUE(w2.has_value());
  EXPECT_EQ(w2->arrivals.size(), 4u);
  // 2 left: below the row bound and no deadline -> not ready.
  EXPECT_FALSE(s.ready(100.0));
  EXPECT_FALSE(s.pop_ready(100.0).has_value());
  // Drain gets the remainder.
  auto w3 = s.flush(100.0);
  ASSERT_TRUE(w3.has_value());
  EXPECT_EQ(w3->arrivals.size(), 2u);
  EXPECT_EQ(s.buffered(), 0u);
  EXPECT_FALSE(s.flush(100.0).has_value());
}

TEST(Scheduler, DeadlineFlushTakesWholeBuffer) {
  util::Rng rng(2);
  const Table t = groupy_table(rng, 10, 2, 3);
  const table::FdSet fds;
  // Unbounded window: only the wait deadline can trigger dispatch.
  OnlineScheduler s(t, fds, fifo_opts(0, 1.0));
  const auto arrivals = sequential_arrivals(5, 0.1);  // t = 0.1 .. 0.5
  for (const auto& a : arrivals) s.push(a);

  EXPECT_DOUBLE_EQ(s.next_deadline(), 1.1);  // oldest arrival + max_wait
  EXPECT_FALSE(s.ready(1.05));
  EXPECT_TRUE(s.ready(1.1));
  auto w = s.pop_ready(1.1);
  ASSERT_TRUE(w.has_value());
  EXPECT_EQ(w->arrivals.size(), 5u);  // deadline flush empties the buffer
  EXPECT_EQ(s.buffered(), 0u);
  EXPECT_TRUE(std::isinf(s.next_deadline()));
}

TEST(Scheduler, FifoPreservesArrivalOrderAndSchemaFields) {
  util::Rng rng(3);
  const Table t = groupy_table(rng, 8, 3, 2);
  const table::FdSet fds;
  OnlineScheduler s(t, fds, fifo_opts(8));
  for (const auto& a : sequential_arrivals(8)) s.push(a);
  auto w = s.pop_ready(1.0);
  ASSERT_TRUE(w.has_value());
  for (std::size_t i = 0; i < 8; ++i) {
    EXPECT_EQ(w->arrivals[i].id, i);
    ASSERT_EQ(w->field_orders[i].size(), 3u);
    for (std::size_t f = 0; f < 3; ++f) EXPECT_EQ(w->field_orders[i][f], f);
  }
  EXPECT_DOUBLE_EQ(w->solve_seconds, 0.0);
}

TEST(Scheduler, WindowedGgrMatchesOfflineGgrOnTheWindow) {
  util::Rng rng(4);
  const Table t = groupy_table(rng, 12, 3, 2);
  const table::FdSet fds;
  SchedulerOptions o;
  o.policy = Policy::WindowedGgr;
  o.window_rows = 12;
  o.ggr.measure = core::LengthMeasure::Unit;
  OnlineScheduler s(t, fds, o);
  for (const auto& a : sequential_arrivals(12)) s.push(a);
  auto w = s.pop_ready(2.0);
  ASSERT_TRUE(w.has_value());

  core::GgrOptions go;
  go.measure = core::LengthMeasure::Unit;
  const auto offline = core::ggr(t, fds, go);
  ASSERT_EQ(w->arrivals.size(), 12u);
  for (std::size_t pos = 0; pos < 12; ++pos) {
    EXPECT_EQ(w->arrivals[pos].row, offline.ordering.row_at(pos));
    EXPECT_EQ(w->field_orders[pos], offline.ordering.fields_at(pos));
  }
  EXPECT_GT(w->solve_seconds, 0.0);
}

TEST(Scheduler, WindowedGgrEmitsEachArrivalOnce) {
  util::Rng rng(5);
  const Table t = groupy_table(rng, 30, 3, 2);
  const table::FdSet fds;
  SchedulerOptions o;
  o.policy = Policy::WindowedGgr;
  o.window_rows = 10;
  o.ggr.measure = core::LengthMeasure::Unit;
  OnlineScheduler s(t, fds, o);
  for (const auto& a : sequential_arrivals(30)) s.push(a);
  std::set<std::uint64_t> seen;
  while (auto w = s.pop_ready(10.0)) {
    EXPECT_EQ(w->arrivals.size(), 10u);
    for (std::size_t i = 0; i < w->arrivals.size(); ++i) {
      EXPECT_TRUE(seen.insert(w->arrivals[i].id).second);
      // Field orders are valid permutations of the schema.
      auto fo = w->field_orders[i];
      std::sort(fo.begin(), fo.end());
      for (std::size_t f = 0; f < fo.size(); ++f) EXPECT_EQ(fo[f], f);
    }
  }
  EXPECT_EQ(seen.size(), 30u);
}

TEST(Scheduler, TenantGgrPartitionsByTenant) {
  util::Rng rng(6);
  const Table t = groupy_table(rng, 24, 3, 2);
  const table::FdSet fds;
  SchedulerOptions o;
  o.policy = Policy::TenantGgr;
  o.window_rows = 24;
  o.ggr.measure = core::LengthMeasure::Unit;
  OnlineScheduler s(t, fds, o);
  for (const auto& a : sequential_arrivals(24, 0.1, 3)) s.push(a);
  auto w = s.pop_ready(5.0);
  ASSERT_TRUE(w.has_value());
  ASSERT_EQ(w->arrivals.size(), 24u);

  // Each tenant's requests form one contiguous block in emission order...
  std::vector<std::uint32_t> block_tenants;
  for (const auto& a : w->arrivals)
    if (block_tenants.empty() || block_tenants.back() != a.tenant)
      block_tenants.push_back(a.tenant);
  std::set<std::uint32_t> distinct(block_tenants.begin(), block_tenants.end());
  EXPECT_EQ(block_tenants.size(), distinct.size());
  EXPECT_EQ(distinct.size(), 3u);
  // ...blocks are ordered by first arrival (tenant 0 arrived first here)...
  EXPECT_EQ(block_tenants.front(), 0u);
  // ...and every arrival is emitted exactly once.
  std::set<std::uint64_t> ids;
  for (const auto& a : w->arrivals) ids.insert(a.id);
  EXPECT_EQ(ids.size(), 24u);
}

TEST(Scheduler, RejectsConfigThatNeverDispatches) {
  // window_rows == 0 with no wait deadline means ready() can never fire:
  // the stream silently degrades to one end-of-stream flush batch. The
  // constructor must reject it.
  util::Rng rng(7);
  const Table t = groupy_table(rng, 4, 2, 2);
  const table::FdSet fds;
  EXPECT_THROW(OnlineScheduler(t, fds, fifo_opts(0, 0.0)),
               std::invalid_argument);
  EXPECT_THROW(OnlineScheduler(t, fds, fifo_opts(0, -1.0)),
               std::invalid_argument);
  // Either bound alone is a valid configuration.
  EXPECT_NO_THROW(OnlineScheduler(t, fds, fifo_opts(4, 0.0)));
  EXPECT_NO_THROW(OnlineScheduler(t, fds, fifo_opts(0, 1.0)));
}

TEST(Scheduler, PolicyNames) {
  EXPECT_EQ(to_string(Policy::Fifo), "FIFO");
}

}  // namespace
}  // namespace llmq::serve
