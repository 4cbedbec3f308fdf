#include "core/ggr.hpp"

#include <algorithm>
#include <chrono>
#include <limits>
#include <stdexcept>

namespace llmq::core {

namespace {

using Clock = std::chrono::steady_clock;

constexpr std::uint32_t kNone = std::numeric_limits<std::uint32_t>::max();

/// Row ids inside the solver are positions in the planned span.
struct RowPlan {
  std::size_t row;
  std::vector<std::size_t> fields;
};

struct NodeResult {
  double s = 0.0;  // greedy objective estimate (Algorithm 1's S)
  std::vector<RowPlan> plans;
};

/// One (field, value) group of a view: `count` rows sharing `code` in a
/// column, listed at members[begin, begin + count) in view order.
struct Group {
  std::uint32_t code = 0;
  std::uint32_t count = 0;
  std::uint32_t begin = 0;
};

/// The chosen group of best_group().
struct Candidate {
  std::uint32_t col = 0;          // original column index
  std::size_t col_view_pos = 0;   // position of col within the view
  std::uint32_t code = 0;
  std::vector<std::uint32_t> rows;
  double hitcount = 0.0;
};

class GgrSolver {
 public:
  GgrSolver(const EncodedTable& v, std::span<const std::uint32_t> rows,
            const table::FdSet& fds, const GgrOptions& opts,
            GgrCounters& counters)
      : n_(rows.size()), m_(v.num_cols()), opts_(opts), counters_(counters) {
    // The span's codes, renumbered per column to [0, distinct in span) in
    // the same order: groups, lengths and scratch then scale with the
    // span, not the table.
    code_.resize(m_ * n_);
    base_.reserve(m_ + 1);
    base_.push_back(0);
    std::vector<std::uint32_t> distinct;
    std::size_t max_card = 0;
    for (std::size_t c = 0; c < m_; ++c) {
      distinct.clear();
      for (const std::uint32_t r : rows) distinct.push_back(v.code(r, c));
      std::sort(distinct.begin(), distinct.end());
      distinct.erase(std::unique(distinct.begin(), distinct.end()),
                     distinct.end());
      std::uint32_t* col = code_.data() + c * n_;
      for (std::size_t p = 0; p < n_; ++p)
        col[p] = static_cast<std::uint32_t>(
            std::lower_bound(distinct.begin(), distinct.end(),
                             v.code(rows[p], c)) -
            distinct.begin());
      for (const std::uint32_t g : distinct) {
        len_.push_back(v.len(c, g, opts_.measure));
        tokens_.push_back(static_cast<double>(v.tokens(c, g)));
      }
      base_.push_back(static_cast<std::uint32_t>(len_.size()));
      max_card = std::max(max_card, distinct.size());
    }
    slot_.assign(max_card, kNone);
    in_group_.assign(n_, 0);
    // Precompute FD closures per column (against the full schema).
    closures_.resize(m_);
    if (opts_.use_fds) {
      for (std::size_t c = 0; c < m_; ++c)
        closures_[c] = fds.inferred_columns(v.table().schema(), c);
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
      if (in_view(cols, c)) {
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
  std::uint32_t code(std::size_t row, std::size_t col) const {
    return code_[col * n_ + row];
  }
  double len(std::size_t row, std::size_t col) const {
    return len_[base_[col] + code(row, col)];
  }
  double sq_len(std::size_t row, std::size_t col) const {
    const double l = len(row, col);
    return l * l;
  }
  static bool in_view(const std::vector<std::uint32_t>& cols, std::size_t c) {
    return std::find(cols.begin(), cols.end(), static_cast<std::uint32_t>(c)) !=
           cols.end();
  }

  /// Group `rows` by their code in `col`: groups_ in first-seen order,
  /// each group's rows at members_[begin, begin + count) in `rows` order.
  void group_column(const std::vector<std::uint32_t>& rows, std::size_t col) {
    groups_.clear();
    for (const std::uint32_t r : rows) {
      std::uint32_t& s = slot_[code(r, col)];
      if (s == kNone) {
        s = static_cast<std::uint32_t>(groups_.size());
        groups_.push_back(Group{code(r, col), 0, 0});
      }
      ++groups_[s].count;
    }
    std::uint32_t offset = 0;
    for (Group& g : groups_) {
      g.begin = offset;
      offset += g.count;
      g.count = 0;
    }
    members_.resize(rows.size());
    for (const std::uint32_t r : rows) {
      Group& g = groups_[slot_[code(r, col)]];
      members_[g.begin + g.count++] = r;
    }
    for (const Group& g : groups_) slot_[g.code] = kNone;
  }

  NodeResult single_col(const std::vector<std::uint32_t>& rows,
                        const std::vector<std::uint32_t>& cols) {
    const std::uint32_t col = cols[0];
    // Group identical values and emit the groups in value order (Algorithm
    // 1 line 15's sort): code order is value order.
    group_column(rows, col);
    std::sort(groups_.begin(), groups_.end(),
              [](const Group& x, const Group& y) { return x.code < y.code; });
    NodeResult res;
    for (const Group& g : groups_) {
      res.s += sq_len(members_[g.begin], col) *
               static_cast<double>(g.count - 1);
      for (std::uint32_t i = g.begin; i < g.begin + g.count; ++i)
        res.plans.push_back(RowPlan{members_[i], {col}});
    }
    return res;
  }

  /// HITCOUNT (Algorithm 1 lines 3-8) for every (col, value) group of the
  /// view; returns the best. The comparison is a total order on groups
  /// (hitcount, size, column position, value), so the winner does not
  /// depend on the order groups are scored in.
  Candidate best_group(const std::vector<std::uint32_t>& rows,
                       const std::vector<std::uint32_t>& cols) {
    Candidate best;
    bool have = false;
    for (std::size_t ci = 0; ci < cols.size(); ++ci) {
      const std::uint32_t col = cols[ci];
      group_column(rows, col);
      counters_.groups_scored += groups_.size();
      for (const Group& g : groups_) {
        if (g.count < 2) continue;  // contributes (|Rv|-1)=0
        const std::uint32_t* members = members_.data() + g.begin;
        double tot = sq_len(members[0], col);
        for (std::size_t c2 : closures_[col]) {
          if (c2 == col || !in_view(cols, c2)) continue;
          double acc = 0.0;
          for (std::uint32_t i = 0; i < g.count; ++i)
            acc += opts_.square_inferred_lengths ? sq_len(members[i], c2)
                                                 : len(members[i], c2);
          tot += acc / static_cast<double>(g.count);
        }
        const double hitcount = tot * static_cast<double>(g.count - 1);
        if (!have || hitcount > best.hitcount ||
            (hitcount == best.hitcount &&
             (g.count > best.rows.size() ||
              (g.count == best.rows.size() &&
               (ci < best.col_view_pos ||
                (ci == best.col_view_pos && g.code < best.code)))))) {
          best.col = col;
          best.col_view_pos = ci;
          best.code = g.code;
          best.rows.assign(members, members + g.count);
          best.hitcount = hitcount;
          have = true;
        }
      }
    }
    return best;
  }

  /// Early-stop fallback (§4.2.2): a fixed field order ranked by each
  /// field's expected PHC over these rows, E[tokens^2] * (rows/distinct -
  /// 1), each field followed by its FD closure, then a lexicographic row
  /// sort under that order.
  NodeResult fallback(const std::vector<std::uint32_t>& rows,
                      const std::vector<std::uint32_t>& cols) {
    ++counters_.fallbacks;
    struct ColScore {
      std::size_t col;
      double score;
    };
    std::vector<ColScore> scored;
    scored.reserve(cols.size());
    const double n = static_cast<double>(rows.size());
    for (const std::uint32_t c : cols) {
      group_column(rows, c);
      // Token counts are integers, so this sum is exact in any order.
      double sum_sq = 0.0;
      for (const Group& g : groups_) {
        const double l = tokens_[base_[c] + g.code];
        sum_sq += l * l * static_cast<double>(g.count);
      }
      const double repeats = n / static_cast<double>(groups_.size()) - 1.0;
      scored.push_back(ColScore{c, repeats > 0.0 ? sum_sq / n * repeats : 0.0});
    }
    std::stable_sort(scored.begin(), scored.end(),
                     [](const ColScore& a, const ColScore& b) {
                       return a.score > b.score;
                     });

    std::vector<std::size_t> field_order;
    field_order.reserve(cols.size());
    if (!opts_.use_fds) {
      for (const auto& cs : scored) field_order.push_back(cs.col);
    } else {
      // Emit each field followed by its not-yet-emitted FD closure: fields
      // that repeat together stay adjacent, so a value match extends
      // through the whole dependent run instead of breaking on an
      // interleaved unrelated field.
      std::vector<bool> emitted(m_, false);
      std::vector<bool> in_cols(m_, false);
      for (auto c : cols) in_cols[c] = true;
      const auto emit = [&](std::size_t c) {
        if (!in_cols[c] || emitted[c]) return;
        emitted[c] = true;
        field_order.push_back(c);
      };
      for (const auto& cs : scored) {
        if (emitted[cs.col]) continue;
        emit(cs.col);
        for (std::size_t dep : closures_[cs.col]) emit(dep);
      }
    }

    std::vector<std::uint32_t> row_order(rows.begin(), rows.end());
    std::stable_sort(row_order.begin(), row_order.end(),
                     [&](std::uint32_t a, std::uint32_t b) {
                       for (std::size_t f : field_order) {
                         const std::uint32_t ca = code(a, f), cb = code(b, f);
                         if (ca != cb) return ca < cb;
                       }
                       return false;
                     });

    NodeResult res;
    // Exact positional PHC of this fixed sub-ordering (cheap single pass).
    for (std::size_t i = 1; i < row_order.size(); ++i) {
      for (std::size_t f : field_order) {
        if (code(row_order[i], f) != code(row_order[i - 1], f)) break;
        res.s += sq_len(row_order[i], f);
      }
    }
    res.plans.reserve(row_order.size());
    for (std::uint32_t r : row_order) res.plans.push_back(RowPlan{r, field_order});
    return res;
  }

  std::size_t n_;  // rows in the span
  std::size_t m_;  // columns
  const GgrOptions& opts_;
  GgrCounters& counters_;
  std::vector<std::uint32_t> code_;   // column-major span-local codes
  std::vector<std::uint32_t> base_;   // per column: first slot in len_
  std::vector<double> len_;           // per slot: length under the measure
  std::vector<double> tokens_;        // per slot: token count (fallback)
  std::vector<std::vector<std::size_t>> closures_;
  std::vector<std::uint32_t> slot_;   // code -> group index scratch
  std::vector<Group> groups_;         // group_column() output
  std::vector<std::uint32_t> members_;
  std::vector<char> in_group_;  // per-row membership scratch for solve()
};

}  // namespace

GgrResult ggr(const EncodedTable& v, std::span<const std::uint32_t> rows,
              const table::FdSet& fds, const GgrOptions& options) {
  if (rows.empty()) throw std::invalid_argument("ggr: empty table");
  const auto start = Clock::now();

  GgrResult out;
  GgrSolver solver(v, rows, fds, options, out.counters);
  std::vector<std::uint32_t> positions = all_rows(rows.size());
  std::vector<std::uint32_t> cols = all_rows(v.num_cols());
  NodeResult res = solver.solve(positions, cols, 0, 0);

  out.estimated_phc = res.s;
  std::vector<std::size_t> row_order;
  std::vector<std::vector<std::size_t>> field_orders;
  row_order.reserve(res.plans.size());
  field_orders.reserve(res.plans.size());
  for (auto& p : res.plans) {
    row_order.push_back(p.row);
    field_orders.push_back(std::move(p.fields));
  }
  out.ordering = Ordering(std::move(row_order), std::move(field_orders));
  out.phc = phc(v, rows, out.ordering, options.measure);
  out.solve_seconds =
      std::chrono::duration<double>(Clock::now() - start).count();
  return out;
}

GgrResult ggr(const table::Table& t, const table::FdSet& fds,
              const GgrOptions& options) {
  if (t.num_rows() == 0) throw std::invalid_argument("ggr: empty table");
  const auto start = Clock::now();
  const EncodedTable v(t);
  GgrResult out = ggr(v, all_rows(t.num_rows()), fds, options);
  out.solve_seconds =
      std::chrono::duration<double>(Clock::now() - start).count();
  return out;
}

GgrResult ggr(const table::Table& t, const GgrOptions& options) {
  return ggr(t, table::FdSet{}, options);
}

}  // namespace llmq::core
