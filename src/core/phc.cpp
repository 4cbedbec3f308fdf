#include "core/phc.hpp"

#include <unordered_map>

#include "tokenizer/tokenizer.hpp"

namespace llmq::core {

CellLengths::CellLengths(const table::Table& t, LengthMeasure measure)
    : n_cols_(t.num_cols()), measure_(measure) {
  len_.resize(t.num_rows() * t.num_cols());
  const auto& tok = tokenizer::global_tokenizer();
  // Token counting is the expensive case; memoize per distinct string so
  // tables with heavy repetition (the interesting ones) tokenize each
  // value once.
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

namespace {

PhcBreakdown evaluate(const table::Table& t, const CellLengths& lengths,
                      const Ordering& ordering, bool want_detail) {
  PhcBreakdown out;
  const std::size_t n = ordering.num_rows();
  const std::size_t m = t.num_cols();
  if (want_detail) out.per_row.assign(n, 0.0);
  for (std::size_t pos = 0; pos < n; ++pos) {
    const std::size_t row = ordering.row_at(pos);
    const auto& fields = ordering.fields_at(pos);
    if (pos > 0) {
      for (std::size_t f = 0; f < m; ++f)
        out.max_possible += lengths.sq_len(row, fields[f]);
    }
    if (pos == 0) continue;
    const std::size_t prev_row = ordering.row_at(pos - 1);
    const auto& prev_fields = ordering.fields_at(pos - 1);
    double hit = 0.0;
    for (std::size_t f = 0; f < m; ++f) {
      const std::size_t col = fields[f];
      const std::size_t prev_col = prev_fields[f];
      if (col != prev_col) break;
      if (t.cell(row, col) != t.cell(prev_row, prev_col)) break;
      hit += lengths.sq_len(row, col);
    }
    out.total += hit;
    if (hit > 0.0) ++out.rows_with_hits;
    if (want_detail) out.per_row[pos] = hit;
  }
  return out;
}

}  // namespace

double phc(const table::Table& t, const Ordering& ordering,
           LengthMeasure measure) {
  const CellLengths lengths(t, measure);
  return evaluate(t, lengths, ordering, /*want_detail=*/false).total;
}

PhcBreakdown phc_breakdown(const table::Table& t, const Ordering& ordering,
                           LengthMeasure measure) {
  const CellLengths lengths(t, measure);
  return evaluate(t, lengths, ordering, /*want_detail=*/true);
}

double phc_with_lengths(const table::Table& t, const CellLengths& lengths,
                        const Ordering& ordering) {
  return evaluate(t, lengths, ordering, /*want_detail=*/false).total;
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
