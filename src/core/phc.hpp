#pragma once
// Prefix Hit Count — the paper's objective (Eq. 1 and 2, §3.1).
//
//   PHC(L) = sum over rows r of hit(L, r)
//   hit(L, r) = max over c of sum_{f<=c} len(L[r][f])^2, subject to
//               L[r][f] == L[r-1][f] for every f <= c (consecutive prefix
//               starting at the first cell, exact value matches only).
//
// Squared lengths model the quadratic token-processing cost of attention.
// Lengths are measured in tokens by default (the unit the KV cache works
// in); the unit measure serves the paper's analytical case studies.
//
// Match semantics: Eq. 2 compares cell *values* positionally. Real prompts
// serialize "field_name": "value" pairs, so two positions only share bytes
// when both the field and the value agree; two positions therefore match
// only on (field, value) equality (see DESIGN.md §7).

#include <cstdint>
#include <span>
#include <vector>

#include "core/encoded_table.hpp"
#include "core/ordering.hpp"
#include "table/table.hpp"

namespace llmq::core {

struct PhcBreakdown {
  double total = 0.0;               // PHC (squared-length units)
  double max_possible = 0.0;        // sum of sq lengths of all cells in rows 2..n
  std::vector<double> per_row;      // hit(L, r) per output row
  std::size_t rows_with_hits = 0;   // rows with non-zero hit

  /// PHC as a fraction of the total chargeable content. This is the
  /// squared-length analogue of the paper's prefix hit rate.
  double hit_fraction() const {
    return max_possible > 0.0 ? total / max_possible : 0.0;
  }
};

/// Evaluate PHC of `ordering` over `t`.
double phc(const table::Table& t, const Ordering& ordering,
           LengthMeasure measure = LengthMeasure::Tokens);

/// Same, with per-row detail.
PhcBreakdown phc_breakdown(const table::Table& t, const Ordering& ordering,
                           LengthMeasure measure = LengthMeasure::Tokens);

/// PHC of `ordering` over the rows `rows` of an encoded table: output
/// position pos holds table row rows[ordering.row_at(pos)] (a planned
/// window, or an emitted stream that may serve one row many times).
double phc(const EncodedTable& v, std::span<const std::uint32_t> rows,
           const Ordering& ordering, LengthMeasure measure);

/// Token-level prefix hit rate of a serialized request stream: for each
/// request, tokens shared with the immediately preceding request's prefix,
/// divided by total tokens. This is what the serving-side cache actually
/// sees (it includes the shared system prompt, JSON syntax, etc.), and is
/// the number reported as PHR in the paper's Tables 2-4.
struct TokenPhr {
  std::uint64_t hit_tokens = 0;
  std::uint64_t total_tokens = 0;
  double rate() const {
    return total_tokens ? static_cast<double>(hit_tokens) /
                              static_cast<double>(total_tokens)
                        : 0.0;
  }
};
TokenPhr token_phr(const std::vector<std::vector<std::uint32_t>>& requests);

}  // namespace llmq::core
