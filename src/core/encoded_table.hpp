#pragma once
// Dictionary-encoded view of a table: the planners' working form.
//
// Each column maps every distinct value to a u32 code, numbered in
// lexicographic value order, and keeps per code the value's token count.
// GGR, its fallback, OPHR, refinement and the PHC metric compare codes
// and read lengths from the dictionary instead of hashing, comparing and
// re-tokenizing strings on every call (the column-store practice of
// executing on compressed data; Abadi et al., SIGMOD 2006). It pays
// because the paper's premise is that cell values repeat.
//
// Codes sort like their strings, so every tie-break and sort a planner
// makes on codes picks what it would pick on the strings (DESIGN.md §14).
// The view borrows its table, which must outlive it; it is built once per
// table per run, inside the call that needs it.

#include <cstddef>
#include <cstdint>
#include <span>
#include <string_view>
#include <vector>

#include "table/table.hpp"

namespace llmq::core {

enum class LengthMeasure {
  Tokens,  // token count under the global tokenizer (default)
  Unit,    // every cell has length 1 (the paper's §3.2 case studies)
};

class EncodedTable {
 public:
  explicit EncodedTable(const table::Table& t);

  const table::Table& table() const { return *table_; }
  std::size_t num_rows() const { return n_rows_; }
  std::size_t num_cols() const { return base_.size() - 1; }

  /// Code of the value at (row, col).
  std::uint32_t code(std::size_t row, std::size_t col) const {
    return codes_[col * n_rows_ + row];
  }

  /// Number of distinct values in `col`; its codes are [0, cardinality).
  std::uint32_t cardinality(std::size_t col) const {
    return base_[col + 1] - base_[col];
  }

  /// The value `code` stands for in `col` (a view into the table).
  std::string_view value(std::size_t col, std::uint32_t code) const {
    return table_->cell(first_row_[base_[col] + code], col);
  }

  /// Token count of the raw value.
  std::uint32_t tokens(std::size_t col, std::uint32_t code) const {
    return tokens_[base_[col] + code];
  }

  /// Length of the value under `measure`.
  double len(std::size_t col, std::uint32_t code, LengthMeasure measure) const {
    return measure == LengthMeasure::Unit
               ? 1.0
               : static_cast<double>(tokens(col, code));
  }

 private:
  const table::Table* table_;
  std::size_t n_rows_;
  std::vector<std::uint32_t> codes_;      // column-major, one per cell
  std::vector<std::uint32_t> base_;       // per column: first dictionary slot
  std::vector<std::uint32_t> first_row_;  // per slot: a row holding the value
  std::vector<std::uint32_t> tokens_;     // per slot: the value's token count
};

/// [0, n) as u32 row ids: the span that covers a whole table.
std::vector<std::uint32_t> all_rows(std::size_t n);

}  // namespace llmq::core
