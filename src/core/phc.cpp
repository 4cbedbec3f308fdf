#include "core/phc.hpp"

#include <algorithm>

namespace llmq::core {

namespace {

/// PHC of `ordering` where output position pos holds table row
/// row_of(ordering.row_at(pos)); equal codes are equal values.
template <typename RowOf>
PhcBreakdown evaluate(const EncodedTable& v, RowOf row_of,
                      const Ordering& ordering, LengthMeasure measure,
                      bool want_detail) {
  PhcBreakdown out;
  const std::size_t n = ordering.num_rows();
  const std::size_t m = v.num_cols();
  const auto sq_len = [&](std::size_t row, std::size_t col) {
    const double l = v.len(col, v.code(row, col), measure);
    return l * l;
  };
  if (want_detail) out.per_row.assign(n, 0.0);
  for (std::size_t pos = 1; pos < n; ++pos) {
    const std::size_t row = row_of(ordering.row_at(pos));
    const auto& fields = ordering.fields_at(pos);
    for (std::size_t f = 0; f < m; ++f) out.max_possible += sq_len(row, fields[f]);
    const std::size_t prev_row = row_of(ordering.row_at(pos - 1));
    const auto& prev_fields = ordering.fields_at(pos - 1);
    double hit = 0.0;
    for (std::size_t f = 0; f < m; ++f) {
      const std::size_t col = fields[f];
      if (col != prev_fields[f]) break;
      if (v.code(row, col) != v.code(prev_row, col)) break;
      hit += sq_len(row, col);
    }
    out.total += hit;
    if (hit > 0.0) ++out.rows_with_hits;
    if (want_detail) out.per_row[pos] = hit;
  }
  return out;
}

constexpr auto kSameRow = [](std::size_t row) { return row; };

}  // namespace

double phc(const table::Table& t, const Ordering& ordering,
           LengthMeasure measure) {
  return evaluate(EncodedTable(t), kSameRow, ordering, measure,
                  /*want_detail=*/false)
      .total;
}

PhcBreakdown phc_breakdown(const table::Table& t, const Ordering& ordering,
                           LengthMeasure measure) {
  return evaluate(EncodedTable(t), kSameRow, ordering, measure,
                  /*want_detail=*/true);
}

double phc(const EncodedTable& v, std::span<const std::uint32_t> rows,
           const Ordering& ordering, LengthMeasure measure) {
  return evaluate(
             v, [&](std::size_t i) -> std::size_t { return rows[i]; },
             ordering, measure, /*want_detail=*/false)
      .total;
}

TokenPhr token_phr(const std::vector<std::vector<std::uint32_t>>& requests) {
  TokenPhr out;
  for (std::size_t i = 0; i < requests.size(); ++i) {
    out.total_tokens += requests[i].size();
    if (i == 0) continue;
    const auto& prev = requests[i - 1];
    const auto& cur = requests[i];
    std::size_t k = 0;
    const std::size_t lim = std::min(prev.size(), cur.size());
    while (k < lim && prev[k] == cur[k]) ++k;
    out.hit_tokens += k;
  }
  return out;
}

}  // namespace llmq::core
