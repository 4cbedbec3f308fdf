#include "core/ggr.hpp"

#include <algorithm>
#include <chrono>
#include <stdexcept>
#include <string_view>
#include <unordered_map>

#include "core/baselines.hpp"

namespace llmq::core {

namespace {

using Clock = std::chrono::steady_clock;

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
            const CellLengths& lengths, const GgrOptions& opts,
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
    const SubOrdering sub = stats_fixed_subordering(
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
  const CellLengths& lengths_;
  const GgrOptions& opts_;
  GgrCounters& counters_;
  std::vector<std::vector<std::size_t>> closures_;
  std::vector<char> in_group_;  // per-row membership scratch for solve()
};

}  // namespace

GgrResult ggr(const table::Table& t, const table::FdSet& fds,
              const GgrOptions& options) {
  if (t.num_rows() == 0) throw std::invalid_argument("ggr: empty table");
  const auto start = Clock::now();

  const CellLengths lengths(t, options.measure);
  GgrResult out;
  GgrSolver solver(t, fds, lengths, options, out.counters);

  std::vector<std::uint32_t> rows(t.num_rows());
  for (std::size_t r = 0; r < t.num_rows(); ++r)
    rows[r] = static_cast<std::uint32_t>(r);
  std::vector<std::uint32_t> cols(t.num_cols());
  for (std::size_t c = 0; c < t.num_cols(); ++c)
    cols[c] = static_cast<std::uint32_t>(c);

  NodeResult res = solver.solve(rows, cols, 0, 0);

  std::vector<std::size_t> row_order;
  std::vector<std::vector<std::size_t>> field_orders;
  row_order.reserve(res.plans.size());
  field_orders.reserve(res.plans.size());
  for (auto& p : res.plans) {
    row_order.push_back(p.row);
    field_orders.push_back(std::move(p.fields));
  }
  out.ordering = Ordering(std::move(row_order), std::move(field_orders));
  out.estimated_phc = res.s;
  out.phc = phc_with_lengths(t, lengths, out.ordering);
  out.solve_seconds =
      std::chrono::duration<double>(Clock::now() - start).count();
  return out;
}

GgrResult ggr(const table::Table& t, const GgrOptions& options) {
  return ggr(t, table::FdSet{}, options);
}

}  // namespace llmq::core
