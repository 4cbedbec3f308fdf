#include "core/ophr.hpp"

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <limits>
#include <map>
#include <stdexcept>
#include <unordered_map>

#include "util/rng.hpp"

namespace llmq::core {

namespace {

using Clock = std::chrono::steady_clock;

struct BudgetSpent {};

/// One emitted row: original row index + field order (original col ids).
struct RowPlan {
  std::size_t row;
  std::vector<std::size_t> fields;
};

struct NodeResult {
  double phc = 0.0;
  std::vector<RowPlan> plans;
};

struct ViewKey {
  std::vector<std::uint32_t> rows;
  std::vector<std::uint32_t> cols;
  bool operator==(const ViewKey& o) const {
    return rows == o.rows && cols == o.cols;
  }
};

struct ViewKeyHash {
  std::size_t operator()(const ViewKey& k) const {
    std::uint64_t h = util::hash64(k.rows.size() * 1315423911ULL);
    for (auto r : k.rows) h = util::hash_combine(h, r);
    h = util::hash_combine(h, 0xC01dC0FFEEULL);
    for (auto c : k.cols) h = util::hash_combine(h, c);
    return static_cast<std::size_t>(h);
  }
};

class Solver {
 public:
  Solver(const EncodedTable& v, LengthMeasure measure, std::size_t max_nodes)
      : v_(v),
        measure_(measure),
        max_nodes_(max_nodes ? max_nodes
                             : std::numeric_limits<std::size_t>::max()) {}

  NodeResult solve(const ViewKey& key) {
    if (nodes_ == max_nodes_) throw BudgetSpent{};
    ++nodes_;
    if (auto it = memo_.find(key); it != memo_.end()) {
      ++memo_hits_;
      return it->second;
    }
    NodeResult result = solve_uncached(key);
    memo_.emplace(key, result);
    return result;
  }

  std::size_t nodes() const { return nodes_; }
  std::size_t memo_hits() const { return memo_hits_; }

 private:
  NodeResult solve_uncached(const ViewKey& key) {
    if (key.rows.size() == 1) return single_row(key);
    if (key.cols.size() == 1) return single_col(key);

    // Pruning: if every value in every remaining field is distinct within
    // this view, no ordering can score — emit rows as-is.
    if (all_distinct(key)) {
      NodeResult res;
      res.plans.reserve(key.rows.size());
      for (auto r : key.rows) res.plans.push_back(make_plan(r, key.cols));
      return res;
    }

    NodeResult best;
    bool have_best = false;
    for (std::size_t ci = 0; ci < key.cols.size(); ++ci) {
      const std::uint32_t col = key.cols[ci];
      // Distinct values of `col` within the view, grouped. std::map gives
      // deterministic candidate order (value order: codes sort like it).
      std::map<std::uint32_t, std::vector<std::uint32_t>> groups;
      for (auto r : key.rows) groups[v_.code(r, col)].push_back(r);
      for (const auto& [value, rv] : groups) {
        const double contribution =
            sq_len(rv.front(), col) * static_cast<double>(rv.size() - 1);

        // Sub-table A: rows without this value, all fields.
        ViewKey a_key;
        a_key.cols = key.cols;
        for (auto r : key.rows)
          if (v_.code(r, col) != value) a_key.rows.push_back(r);

        // Sub-table B: rows with this value, without this field.
        ViewKey b_key;
        b_key.rows = rv;
        for (auto c : key.cols)
          if (c != col) b_key.cols.push_back(c);

        NodeResult b = solve(b_key);
        NodeResult a;
        if (!a_key.rows.empty()) a = solve(a_key);

        const double total = a.phc + b.phc + contribution;
        if (!have_best || total > best.phc) {
          have_best = true;
          best.phc = total;
          best.plans.clear();
          best.plans.reserve(key.rows.size());
          for (auto& plan : b.plans) {
            RowPlan p;
            p.row = plan.row;
            p.fields.reserve(key.cols.size());
            p.fields.push_back(col);
            p.fields.insert(p.fields.end(), plan.fields.begin(),
                            plan.fields.end());
            best.plans.push_back(std::move(p));
          }
          for (auto& plan : a.plans) best.plans.push_back(std::move(plan));
        }
      }
    }
    return best;
  }

  NodeResult single_row(const ViewKey& key) {
    NodeResult res;
    res.plans.push_back(make_plan(key.rows[0], key.cols));
    return res;
  }

  NodeResult single_col(const ViewKey& key) {
    // Group identical values; each value scores len^2 * (count - 1).
    std::map<std::uint32_t, std::vector<std::uint32_t>> groups;
    const std::uint32_t col = key.cols[0];
    for (auto r : key.rows) groups[v_.code(r, col)].push_back(r);
    NodeResult res;
    for (const auto& [value, rows] : groups) {
      res.phc += sq_len(rows.front(), col) *
                 static_cast<double>(rows.size() - 1);
      for (auto r : rows) res.plans.push_back(make_plan(r, key.cols));
    }
    return res;
  }

  bool all_distinct(const ViewKey& key) const {
    for (auto c : key.cols) {
      std::unordered_map<std::uint32_t, int> seen;
      for (auto r : key.rows)
        if (++seen[v_.code(r, c)] > 1) return false;
    }
    return true;
  }

  double sq_len(std::size_t row, std::size_t col) const {
    const double l = v_.len(col, v_.code(row, col), measure_);
    return l * l;
  }

  static RowPlan make_plan(std::uint32_t row,
                           const std::vector<std::uint32_t>& cols) {
    RowPlan p;
    p.row = row;
    p.fields.assign(cols.begin(), cols.end());
    return p;
  }

  const EncodedTable& v_;
  LengthMeasure measure_;
  std::size_t max_nodes_;
  std::unordered_map<ViewKey, NodeResult, ViewKeyHash> memo_;
  std::size_t nodes_ = 0;
  std::size_t memo_hits_ = 0;
};

Ordering plans_to_ordering(std::vector<RowPlan> plans) {
  std::vector<std::size_t> rows;
  std::vector<std::vector<std::size_t>> fields;
  rows.reserve(plans.size());
  fields.reserve(plans.size());
  for (auto& p : plans) {
    rows.push_back(p.row);
    fields.push_back(std::move(p.fields));
  }
  return Ordering(std::move(rows), std::move(fields));
}

}  // namespace

std::optional<OphrResult> ophr(const EncodedTable& v,
                               const OphrOptions& options) {
  if (v.num_rows() == 0)
    throw std::invalid_argument("ophr: empty table");
  const auto start = Clock::now();
  Solver solver(v, options.measure, options.max_nodes);

  ViewKey root;
  root.rows = all_rows(v.num_rows());
  root.cols = all_rows(v.num_cols());

  try {
    NodeResult res = solver.solve(root);
    OphrResult out;
    out.phc = res.phc;
    out.ordering = plans_to_ordering(std::move(res.plans));
    out.nodes_explored = solver.nodes();
    out.memo_hits = solver.memo_hits();
    out.solve_seconds =
        std::chrono::duration<double>(Clock::now() - start).count();
    return out;
  } catch (const BudgetSpent&) {
    return std::nullopt;
  }
}

std::optional<OphrResult> ophr(const table::Table& t,
                               const OphrOptions& options) {
  if (t.num_rows() == 0)
    throw std::invalid_argument("ophr: empty table");
  const auto start = Clock::now();
  std::optional<OphrResult> out = ophr(EncodedTable(t), options);
  if (out)
    out->solve_seconds =
        std::chrono::duration<double>(Clock::now() - start).count();
  return out;
}

}  // namespace llmq::core
