#include "core/refine.hpp"

#include <algorithm>
#include <chrono>

namespace llmq::core {

namespace {

/// Positional hit between the scheduled rows at output positions pos-1 and
/// pos ((field, value) matching, as the PHC metric does).
double adjacency_hit(const EncodedTable& v, LengthMeasure measure,
                     const std::vector<std::size_t>& rows,
                     const std::vector<std::vector<std::size_t>>& fields,
                     std::size_t pos) {
  if (pos == 0 || pos >= rows.size()) return 0.0;
  const auto& prev_f = fields[pos - 1];
  const auto& cur_f = fields[pos];
  double hit = 0.0;
  for (std::size_t f = 0; f < cur_f.size(); ++f) {
    if (prev_f[f] != cur_f[f]) break;
    const std::uint32_t code = v.code(rows[pos], cur_f[f]);
    if (code != v.code(rows[pos - 1], prev_f[f])) break;
    const double l = v.len(cur_f[f], code, measure);
    hit += l * l;
  }
  return hit;
}

/// Pair alignment: the columns on which two rows agree, fronted in both
/// rows' field orders (in the first row's current relative order), so the
/// whole agreement set becomes a shared positional prefix.
struct PairAlignment {
  std::vector<std::size_t> prev_fields;
  std::vector<std::size_t> cur_fields;
  bool any_common = false;
};

PairAlignment align_pair(const EncodedTable& v, std::size_t prev_row,
                         const std::vector<std::size_t>& prev_fields,
                         std::size_t cur_row,
                         const std::vector<std::size_t>& cur_fields) {
  PairAlignment out;
  std::vector<bool> common(v.num_cols(), false);
  std::vector<std::size_t> shared;
  for (std::size_t col : prev_fields) {
    if (v.code(prev_row, col) == v.code(cur_row, col)) {
      common[col] = true;
      shared.push_back(col);
      out.any_common = true;
    }
  }
  auto rebuild = [&](const std::vector<std::size_t>& order) {
    std::vector<std::size_t> o = shared;
    for (std::size_t col : order)
      if (!common[col]) o.push_back(col);
    return o;
  };
  out.prev_fields = rebuild(prev_fields);
  out.cur_fields = rebuild(cur_fields);
  return out;
}

}  // namespace

RefineResult refine_ordering(const table::Table& t, Ordering start,
                             const RefineOptions& options) {
  using Clock = std::chrono::steady_clock;
  const auto t0 = Clock::now();
  const EncodedTable v(t);
  const std::vector<std::uint32_t> all = all_rows(t.num_rows());

  RefineResult out;
  out.phc_before = phc(v, all, start, options.measure);

  std::vector<std::size_t> rows = start.row_order();
  std::vector<std::vector<std::size_t>> fields = start.field_orders();
  const std::size_t n = rows.size();

  auto hit = [&](std::size_t pos) {
    return adjacency_hit(v, options.measure, rows, fields, pos);
  };

  for (std::size_t pass = 0; pass < options.max_passes; ++pass) {
    std::size_t moves_this_pass = 0;

    for (std::size_t pos = 1; pos < n; ++pos) {
      // Realign the (pos-1, pos) pair: fronting their agreement set
      // changes hits at pos-1, pos, and pos+1.
      PairAlignment aligned = align_pair(v, rows[pos - 1], fields[pos - 1],
                                         rows[pos], fields[pos]);
      if (!aligned.any_common) continue;
      const double before =
          hit(pos - 1) + hit(pos) + (pos + 1 < n ? hit(pos + 1) : 0.0);
      auto saved_prev = fields[pos - 1];
      auto saved_cur = fields[pos];
      fields[pos - 1] = std::move(aligned.prev_fields);
      fields[pos] = std::move(aligned.cur_fields);
      const double after =
          hit(pos - 1) + hit(pos) + (pos + 1 < n ? hit(pos + 1) : 0.0);
      if (after > before + 1e-12) {
        ++moves_this_pass;
      } else {
        fields[pos - 1] = std::move(saved_prev);
        fields[pos] = std::move(saved_cur);
      }
    }

    for (std::size_t pos = 0; pos + 1 < n; ++pos) {
      // Swapping positions pos/pos+1 affects hits at pos, pos+1, pos+2.
      const double before =
          hit(pos) + hit(pos + 1) + (pos + 2 < n ? hit(pos + 2) : 0.0);
      std::swap(rows[pos], rows[pos + 1]);
      std::swap(fields[pos], fields[pos + 1]);
      const double after =
          hit(pos) + hit(pos + 1) + (pos + 2 < n ? hit(pos + 2) : 0.0);
      if (after > before + 1e-12) {
        ++moves_this_pass;
      } else {
        std::swap(rows[pos], rows[pos + 1]);
        std::swap(fields[pos], fields[pos + 1]);
      }
    }

    out.moves_applied += moves_this_pass;
    ++out.passes;
    if (moves_this_pass == 0) break;
  }

  out.ordering = Ordering(std::move(rows), std::move(fields));
  out.phc_after = phc(v, all, out.ordering, options.measure);
  out.seconds = std::chrono::duration<double>(Clock::now() - t0).count();
  return out;
}

}  // namespace llmq::core
