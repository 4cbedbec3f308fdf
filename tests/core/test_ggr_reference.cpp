// Reference diff for the encoded planner.
//
// ReferenceGgr below is GGR as it was written on strings: HITCOUNT groups
// keyed by string_view in a hash map, lengths memoized per distinct
// string, and a fallback that counts values in a string-keyed map and sorts
// rows by string comparison. The encoded planner (core/ggr.cpp) must plan
// exactly what it plans -- row order, every field order, estimated and
// exact PHC, and all four counters -- on random tables, on windows that
// hold one row twice (which is why GGR returns positions in its span), and
// through windowed_ggr and OnlineScheduler's GGR policies.

#include <gtest/gtest.h>

#include <algorithm>
#include <numeric>
#include <string_view>
#include <unordered_map>

#include "core/ggr.hpp"
#include "core/windowed.hpp"
#include "serve/scheduler.hpp"
#include "tokenizer/tokenizer.hpp"
#include "util/rng.hpp"

namespace llmq::core {
namespace {

// ---- Reference implementation (the string-keyed planner; do not optimize). ----

class RefLengths {
 public:
  RefLengths(const table::Table& t, LengthMeasure measure)
      : n_cols_(t.num_cols()) {
    len_.resize(t.num_rows() * t.num_cols());
    const auto& tok = tokenizer::global_tokenizer();
    std::unordered_map<std::string_view, double> memo;
    for (std::size_t c = 0; c < t.num_cols(); ++c) {
      for (std::size_t r = 0; r < t.num_rows(); ++r) {
        double l = 1.0;
        if (measure == LengthMeasure::Tokens) {
          const std::string& v = t.cell(r, c);
          auto it = memo.find(v);
          if (it == memo.end())
            it = memo.emplace(v, static_cast<double>(tok.count(v))).first;
          l = it->second;
        }
        len_[r * n_cols_ + c] = l;
      }
    }
  }
  double len(std::size_t row, std::size_t col) const {
    return len_[row * n_cols_ + col];
  }
  double sq_len(std::size_t row, std::size_t col) const {
    const double l = len(row, col);
    return l * l;
  }

 private:
  std::vector<double> len_;
  std::size_t n_cols_;
};

struct RefSubOrdering {
  std::vector<std::size_t> row_order;
  std::vector<std::size_t> field_order;
};

RefSubOrdering ref_stats_fixed_subordering(
    const table::Table& t, const std::vector<std::uint32_t>& rows,
    const std::vector<std::uint32_t>& cols,
    const std::vector<std::vector<std::size_t>>* closures) {
  const auto& tok = tokenizer::global_tokenizer();
  struct ColScore {
    std::size_t col;
    double score;
  };
  std::vector<ColScore> scored;
  for (auto c : cols) {
    std::unordered_map<std::string_view, std::size_t> counts;
    double sum_sq = 0.0;
    for (auto r : rows) ++counts[t.cell(r, c)];
    for (const auto& [v, cnt] : counts) {
      const double l = static_cast<double>(tok.count(v));
      sum_sq += l * l * static_cast<double>(cnt);
    }
    const double avg_sq =
        rows.empty() ? 0.0 : sum_sq / static_cast<double>(rows.size());
    const double repeats =
        counts.empty() ? 0.0
                       : static_cast<double>(rows.size()) /
                                 static_cast<double>(counts.size()) -
                             1.0;
    scored.push_back(ColScore{c, repeats > 0.0 ? avg_sq * repeats : 0.0});
  }
  std::stable_sort(scored.begin(), scored.end(),
                   [](const ColScore& a, const ColScore& b) {
                     return a.score > b.score;
                   });
  RefSubOrdering out;
  if (closures == nullptr) {
    for (const auto& cs : scored) out.field_order.push_back(cs.col);
  } else {
    std::vector<bool> emitted(t.num_cols(), false);
    std::vector<bool> in_view(t.num_cols(), false);
    for (auto c : cols) in_view[c] = true;
    auto emit = [&](std::size_t c) {
      if (!in_view[c] || emitted[c]) return;
      emitted[c] = true;
      out.field_order.push_back(c);
    };
    for (const auto& cs : scored) {
      if (emitted[cs.col]) continue;
      emit(cs.col);
      for (std::size_t dep : (*closures)[cs.col]) emit(dep);
    }
  }
  out.row_order.assign(rows.begin(), rows.end());
  std::stable_sort(out.row_order.begin(), out.row_order.end(),
                   [&](std::size_t a, std::size_t b) {
                     for (std::size_t f : out.field_order) {
                       const auto cmp = t.cell(a, f).compare(t.cell(b, f));
                       if (cmp != 0) return cmp < 0;
                     }
                     return false;
                   });
  return out;
}

double ref_phc(const table::Table& t, const RefLengths& lengths,
               const Ordering& o) {
  double total = 0.0;
  for (std::size_t pos = 1; pos < o.num_rows(); ++pos) {
    double hit = 0.0;
    for (std::size_t f = 0; f < t.num_cols(); ++f) {
      const std::size_t col = o.fields_at(pos)[f];
      if (col != o.fields_at(pos - 1)[f]) break;
      if (t.cell(o.row_at(pos), col) != t.cell(o.row_at(pos - 1), col)) break;
      hit += lengths.sq_len(o.row_at(pos), col);
    }
    total += hit;
  }
  return total;
}

struct RowPlan {
  std::size_t row;
  std::vector<std::size_t> fields;
};

struct NodeResult {
  double s = 0.0;  // greedy objective estimate (Algorithm 1's S)
  std::vector<RowPlan> plans;
};

/// A candidate group: rows of the view sharing `value` in column `col`.
struct Candidate {
  std::uint32_t col = 0;          // original column index
  std::size_t col_view_pos = 0;   // position of col within the view
  std::string_view value;
  std::vector<std::uint32_t> rows;
  double hitcount = 0.0;
};

class GgrSolver {
 public:
  GgrSolver(const table::Table& t, const table::FdSet& fds,
            const RefLengths& lengths, const GgrOptions& opts,
            GgrCounters& counters)
      : t_(t), fds_(fds), lengths_(lengths), opts_(opts), counters_(counters) {
    in_group_.assign(t.num_rows(), 0);
    // Precompute FD closures per column (against the full schema).
    closures_.resize(t.num_cols());
    if (opts_.use_fds) {
      for (std::size_t c = 0; c < t.num_cols(); ++c)
        closures_[c] = fds_.inferred_columns(t.schema(), c);
    }
  }

  NodeResult solve(const std::vector<std::uint32_t>& rows,
                   const std::vector<std::uint32_t>& cols, int row_depth,
                   int col_depth) {
    ++counters_.recursion_nodes;
    if (rows.size() == 1) {
      NodeResult res;
      res.plans.push_back(RowPlan{rows[0], {cols.begin(), cols.end()}});
      return res;
    }
    if (cols.empty()) {
      NodeResult res;
      for (auto r : rows) res.plans.push_back(RowPlan{r, {}});
      return res;
    }
    if (cols.size() == 1) return single_col(rows, cols);

    const bool depth_exceeded =
        (opts_.max_row_depth >= 0 && row_depth >= opts_.max_row_depth) ||
        (opts_.max_col_depth >= 0 && col_depth >= opts_.max_col_depth);
    if (depth_exceeded) return fallback(rows, cols);

    Candidate best = best_group(rows, cols);
    if (best.rows.empty() || best.hitcount <= 0.0) {
      // No value repeats anywhere in this view; ordering cannot score on
      // the leading field. Hand off to the fallback (which may still order
      // sensibly for downstream fields).
      return fallback(rows, cols);
    }
    if (opts_.hitcount_threshold > 0.0 &&
        best.hitcount < opts_.hitcount_threshold)
      return fallback(rows, cols);

    // Fields committed for the group rows: chosen column + FD closure
    // (restricted to columns still in this view).
    std::vector<std::size_t> committed{best.col};
    for (std::size_t c : closures_[best.col]) {
      if (c == best.col) continue;
      if (std::find(cols.begin(), cols.end(), static_cast<std::uint32_t>(c)) !=
          cols.end()) {
        committed.push_back(c);
        ++counters_.fd_fields_skipped;
      }
    }

    // Sub-table B: group rows, minus committed fields (column recursion).
    std::vector<std::uint32_t> b_cols;
    b_cols.reserve(cols.size());
    for (auto c : cols)
      if (std::find(committed.begin(), committed.end(), c) == committed.end())
        b_cols.push_back(c);

    // Sub-table A: remaining rows, all fields (row recursion). The
    // membership scratch is a member reused across every recursion node —
    // a fresh O(num_rows) vector here is O(N^2) allocation over the whole
    // recursion. Marks are cleared before recursing, so reuse is safe.
    std::vector<std::uint32_t> a_rows;
    a_rows.reserve(rows.size() - best.rows.size());
    for (auto r : best.rows) in_group_[r] = 1;
    for (auto r : rows)
      if (!in_group_[r]) a_rows.push_back(r);
    for (auto r : best.rows) in_group_[r] = 0;

    NodeResult b = solve(best.rows, b_cols, row_depth, col_depth + 1);
    NodeResult a;
    if (!a_rows.empty()) a = solve(a_rows, cols, row_depth + 1, col_depth);

    NodeResult res;
    res.s = a.s + b.s + best.hitcount;
    res.plans.reserve(rows.size());
    for (auto& plan : b.plans) {
      RowPlan p;
      p.row = plan.row;
      p.fields.reserve(cols.size());
      p.fields.insert(p.fields.end(), committed.begin(), committed.end());
      p.fields.insert(p.fields.end(), plan.fields.begin(), plan.fields.end());
      res.plans.push_back(std::move(p));
    }
    for (auto& plan : a.plans) res.plans.push_back(std::move(plan));
    return res;
  }

 private:
  NodeResult single_col(const std::vector<std::uint32_t>& rows,
                        const std::vector<std::uint32_t>& cols) {
    const std::uint32_t col = cols[0];
    // Group identical values, first-seen order; sort groups by value for a
    // deterministic, grouped emission (Algorithm 1 line 15's sort).
    std::vector<Candidate> groups = collect_groups(rows, {col});
    std::sort(groups.begin(), groups.end(),
              [](const Candidate& x, const Candidate& y) {
                return x.value < y.value;
              });
    NodeResult res;
    for (const auto& g : groups) {
      res.s += lengths_.sq_len(g.rows.front(), col) *
               static_cast<double>(g.rows.size() - 1);
      for (auto r : g.rows) res.plans.push_back(RowPlan{r, {col}});
    }
    return res;
  }

  /// All (col, value) groups for the listed columns, first-seen order,
  /// without HITCOUNT scores.
  std::vector<Candidate> collect_groups(
      const std::vector<std::uint32_t>& rows,
      const std::vector<std::uint32_t>& cols) const {
    std::vector<Candidate> out;
    for (std::size_t ci = 0; ci < cols.size(); ++ci) {
      const std::uint32_t col = cols[ci];
      std::unordered_map<std::string_view, std::size_t> idx;
      idx.reserve(rows.size() * 2);
      for (auto r : rows) {
        const std::string& v = t_.cell(r, col);
        auto [it, inserted] = idx.try_emplace(v, out.size());
        if (inserted) {
          Candidate c;
          c.col = col;
          c.col_view_pos = ci;
          c.value = v;
          out.push_back(std::move(c));
        }
        out[it->second].rows.push_back(r);
      }
    }
    return out;
  }

  /// HITCOUNT (Algorithm 1 lines 3-8) for every group; returns the best.
  Candidate best_group(const std::vector<std::uint32_t>& rows,
                       const std::vector<std::uint32_t>& cols) {
    std::vector<Candidate> groups = collect_groups(rows, cols);
    counters_.groups_scored += groups.size();

    Candidate best;
    bool have = false;
    for (auto& g : groups) {
      if (g.rows.size() < 2) continue;  // contributes (|Rv|-1)=0
      double tot = lengths_.sq_len(g.rows.front(), g.col);
      for (std::size_t c2 : closures_[g.col]) {
        if (c2 == g.col) continue;
        if (std::find(cols.begin(), cols.end(),
                      static_cast<std::uint32_t>(c2)) == cols.end())
          continue;
        double acc = 0.0;
        for (auto r : g.rows)
          acc += opts_.square_inferred_lengths ? lengths_.sq_len(r, c2)
                                               : lengths_.len(r, c2);
        tot += acc / static_cast<double>(g.rows.size());
      }
      g.hitcount = tot * static_cast<double>(g.rows.size() - 1);
      if (!have || g.hitcount > best.hitcount ||
          (g.hitcount == best.hitcount &&
           (g.rows.size() > best.rows.size() ||
            (g.rows.size() == best.rows.size() &&
             (g.col_view_pos < best.col_view_pos ||
              (g.col_view_pos == best.col_view_pos && g.value < best.value)))))) {
        best = std::move(g);
        have = true;
      }
    }
    return best;
  }

  /// Early-stop fallback (§4.2.2): fixed stats-ranked field order +
  /// lexicographic row sort.
  NodeResult fallback(const std::vector<std::uint32_t>& rows,
                      const std::vector<std::uint32_t>& cols) {
    ++counters_.fallbacks;
    NodeResult res;
    const RefSubOrdering sub = ref_stats_fixed_subordering(
        t_, rows, cols, opts_.use_fds ? &closures_ : nullptr);
    const std::vector<std::size_t>& row_order = sub.row_order;
    const std::vector<std::size_t>& field_order = sub.field_order;
    // Exact positional PHC of this fixed sub-ordering (cheap single pass).
    for (std::size_t i = 1; i < row_order.size(); ++i) {
      for (std::size_t f : field_order) {
        if (t_.cell(row_order[i], f) != t_.cell(row_order[i - 1], f)) break;
        res.s += lengths_.sq_len(row_order[i], f);
      }
    }
    res.plans.reserve(row_order.size());
    for (std::size_t r : row_order) res.plans.push_back(RowPlan{r, field_order});
    return res;
  }

  const table::Table& t_;
  const table::FdSet& fds_;
  const RefLengths& lengths_;
  const GgrOptions& opts_;
  GgrCounters& counters_;
  std::vector<std::vector<std::size_t>> closures_;
  std::vector<char> in_group_;  // per-row membership scratch for solve()
};


GgrResult reference_ggr(const table::Table& t, const table::FdSet& fds,
                        const GgrOptions& options) {
  const RefLengths lengths(t, options.measure);
  GgrResult out;
  GgrSolver solver(t, fds, lengths, options, out.counters);
  std::vector<std::uint32_t> rows(t.num_rows());
  std::iota(rows.begin(), rows.end(), 0u);
  std::vector<std::uint32_t> cols(t.num_cols());
  std::iota(cols.begin(), cols.end(), 0u);
  NodeResult res = solver.solve(rows, cols, 0, 0);
  std::vector<std::size_t> row_order;
  std::vector<std::vector<std::size_t>> field_orders;
  for (auto& p : res.plans) {
    row_order.push_back(p.row);
    field_orders.push_back(std::move(p.fields));
  }
  out.ordering = Ordering(std::move(row_order), std::move(field_orders));
  out.estimated_phc = res.s;
  out.phc = ref_phc(t, lengths, out.ordering);
  return out;
}

// ---- Inputs. ----

const char* const kWords[] = {"a", "bb", "ccc dd", "the long value here",
                              "x1", "Zeta", "q r s t u v", "", " pad "};

/// Columns with skewed repetition (a few hot values, a long tail), one
/// column functionally determined by another, and one near-unique column.
table::Table random_table(util::Rng& rng, std::size_t rows, table::FdSet& fds) {
  table::Table t(table::Schema::of_names({"cat", "cat_name", "tag", "id", "flag"}));
  for (std::size_t r = 0; r < rows; ++r) {
    const std::size_t hot = rng.next_below(4) == 0 ? rng.next_below(9)
                                                    : rng.next_below(3);
    t.append_row({kWords[hot], std::string("name of ") + kWords[hot],
                  kWords[rng.next_below(9)] + std::to_string(rng.next_below(3)),
                  "id" + std::to_string(rng.next_below(rows)),
                  rng.next_below(2) ? "yes" : "no"});
  }
  fds = table::FdSet{};
  fds.add_group({"cat", "cat_name"});
  return t;
}

std::vector<GgrOptions> option_grid() {
  std::vector<GgrOptions> grid;
  for (const LengthMeasure m : {LengthMeasure::Tokens, LengthMeasure::Unit}) {
    for (const auto& [row_depth, col_depth] :
         {std::pair{4, 2}, std::pair{-1, -1}, std::pair{1, 1}, std::pair{0, 0}}) {
      GgrOptions o;
      o.measure = m;
      o.max_row_depth = row_depth;
      o.max_col_depth = col_depth;
      grid.push_back(o);
    }
    GgrOptions threshold;
    threshold.measure = m;
    threshold.hitcount_threshold = m == LengthMeasure::Unit ? 3.0 : 40.0;
    grid.push_back(threshold);
    GgrOptions literal;
    literal.measure = m;
    literal.square_inferred_lengths = false;
    grid.push_back(literal);
    GgrOptions no_fds;
    no_fds.measure = m;
    no_fds.use_fds = false;
    grid.push_back(no_fds);
  }
  return grid;
}

void expect_same(const GgrResult& got, const GgrResult& want) {
  EXPECT_EQ(got.ordering.row_order(), want.ordering.row_order());
  EXPECT_EQ(got.ordering.field_orders(), want.ordering.field_orders());
  EXPECT_EQ(got.estimated_phc, want.estimated_phc);
  EXPECT_EQ(got.phc, want.phc);
  EXPECT_EQ(got.counters.recursion_nodes, want.counters.recursion_nodes);
  EXPECT_EQ(got.counters.groups_scored, want.counters.groups_scored);
  EXPECT_EQ(got.counters.fallbacks, want.counters.fallbacks);
  EXPECT_EQ(got.counters.fd_fields_skipped, want.counters.fd_fields_skipped);
}

std::vector<std::size_t> widen(std::span<const std::uint32_t> rows) {
  return {rows.begin(), rows.end()};
}

// ---- Tests. ----

TEST(GgrMatchesReference, OnWholeTables) {
  util::Rng rng(0x66a);
  const auto grid = option_grid();
  for (int trial = 0; trial < 12; ++trial) {
    table::FdSet fds;
    const table::Table t = random_table(rng, 20 + rng.next_below(60), fds);
    for (std::size_t i = 0; i < grid.size(); ++i) {
      SCOPED_TRACE(::testing::Message() << "trial " << trial << " options " << i);
      expect_same(ggr(t, fds, grid[i]), reference_ggr(t, fds, grid[i]));
    }
  }
}

TEST(GgrMatchesReference, OnWindowsThatRepeatRows) {
  util::Rng rng(0x66b);
  const auto grid = option_grid();
  for (int trial = 0; trial < 12; ++trial) {
    table::FdSet fds;
    const table::Table t = random_table(rng, 30, fds);
    const EncodedTable v(t);
    // Rows drawn with replacement: most windows hold some row twice.
    std::vector<std::uint32_t> window(4 + rng.next_below(40));
    for (auto& r : window) r = static_cast<std::uint32_t>(rng.next_below(30));
    for (std::size_t i = 0; i < grid.size(); ++i) {
      SCOPED_TRACE(::testing::Message() << "trial " << trial << " options " << i);
      expect_same(ggr(v, window, fds, grid[i]),
                  reference_ggr(t.take_rows(widen(window)), fds, grid[i]));
    }
  }
}

TEST(GgrMatchesReference, ThroughWindowedGgr) {
  util::Rng rng(0x66c);
  table::FdSet fds;
  const table::Table t = random_table(rng, 70, fds);
  for (const std::size_t w : {1u, 7u, 16u, 0u}) {
    WindowedOptions wo;
    wo.window_rows = w;
    const WindowedResult got = windowed_ggr(t, fds, wo);
    const std::size_t step = w == 0 ? t.num_rows() : w;
    std::vector<std::size_t> rows;
    std::vector<std::vector<std::size_t>> fields;
    for (std::size_t begin = 0; begin < t.num_rows(); begin += step) {
      std::vector<std::size_t> idx(std::min(step, t.num_rows() - begin));
      std::iota(idx.begin(), idx.end(), begin);
      const GgrResult ref = reference_ggr(t.take_rows(idx), fds, wo.ggr);
      for (std::size_t pos = 0; pos < ref.ordering.num_rows(); ++pos) {
        rows.push_back(begin + ref.ordering.row_at(pos));
        fields.push_back(ref.ordering.fields_at(pos));
      }
    }
    const Ordering want(std::move(rows), std::move(fields));
    EXPECT_EQ(got.ordering.row_order(), want.row_order());
    EXPECT_EQ(got.ordering.field_orders(), want.field_orders());
    EXPECT_EQ(got.phc, ref_phc(t, RefLengths(t, wo.ggr.measure), want));
  }
}

/// OnlineScheduler's GGR policies, re-planned with the reference: class
/// partitions (priority_order), then tenant partitions (TenantGgr), each
/// planned over its rows copied into a table of their own.
TEST(GgrMatchesReference, ThroughOnlineScheduler) {
  util::Rng rng(0x66d);
  table::FdSet fds;
  const table::Table t = random_table(rng, 25, fds);
  for (const serve::Policy policy :
       {serve::Policy::WindowedGgr, serve::Policy::TenantGgr}) {
    for (const bool priority : {false, true}) {
      serve::SchedulerOptions so;
      so.policy = policy;
      so.window_rows = 24;
      so.priority_order = priority;
      serve::OnlineScheduler s(t, fds, so);
      std::vector<serve::Arrival> batch;
      for (std::uint64_t id = 0; id < 24; ++id) {
        serve::Arrival a;
        a.id = id;
        a.time = static_cast<double>(id) * 0.01;
        a.row = rng.next_below(t.num_rows());
        a.tenant = static_cast<std::uint32_t>(rng.next_below(3));
        a.priority = static_cast<llm::PriorityClass>(rng.next_below(3));
        s.push(a);
        batch.push_back(a);
      }
      const auto w = s.pop_ready(1.0);
      ASSERT_TRUE(w.has_value());

      std::vector<std::vector<serve::Arrival>> parts;
      if (priority) {
        parts.resize(llm::kNumPriorityClasses);
        for (const auto& a : batch)
          parts[static_cast<std::size_t>(a.priority)].push_back(a);
      } else {
        parts.push_back(batch);
      }
      std::vector<std::uint64_t> want_ids;
      std::vector<std::vector<std::size_t>> want_fields;
      const auto plan = [&](const std::vector<serve::Arrival>& part) {
        std::vector<std::size_t> rows;
        for (const auto& a : part) rows.push_back(a.row);
        const GgrResult ref = reference_ggr(t.take_rows(rows), fds, so.ggr);
        for (std::size_t pos = 0; pos < ref.ordering.num_rows(); ++pos) {
          want_ids.push_back(part[ref.ordering.row_at(pos)].id);
          want_fields.push_back(ref.ordering.fields_at(pos));
        }
      };
      for (const auto& part : parts) {
        if (part.empty()) continue;
        if (policy == serve::Policy::WindowedGgr) {
          plan(part);
          continue;
        }
        std::vector<std::uint32_t> order;
        for (const auto& a : part)
          if (std::find(order.begin(), order.end(), a.tenant) == order.end())
            order.push_back(a.tenant);
        for (const std::uint32_t tenant : order) {
          std::vector<serve::Arrival> sub;
          for (const auto& a : part)
            if (a.tenant == tenant) sub.push_back(a);
          plan(sub);
        }
      }
      std::vector<std::uint64_t> got_ids;
      for (const auto& a : w->arrivals) got_ids.push_back(a.id);
      EXPECT_EQ(got_ids, want_ids);
      EXPECT_EQ(w->field_orders, want_fields);
    }
  }
}

}  // namespace
}  // namespace llmq::core
