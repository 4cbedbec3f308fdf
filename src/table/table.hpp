#pragma once
// Columnar in-memory table.
//
// The substrate the query executor and dataset generators operate on.
// Column-major storage mirrors how analytical engines hold data. The
// planners do not scan these strings: they run on a dictionary-encoded
// view built once per run (core/encoded_table.hpp).

#include <cstddef>
#include <string>
#include <string_view>
#include <vector>

#include "table/schema.hpp"

namespace llmq::table {

class Table {
 public:
  Table() = default;
  explicit Table(Schema schema);

  const Schema& schema() const { return schema_; }
  std::size_t num_rows() const { return num_rows_; }
  std::size_t num_cols() const { return schema_.size(); }

  /// Append a row; `cells.size()` must equal `num_cols()`.
  void append_row(std::vector<std::string> cells);

  const std::string& cell(std::size_t row, std::size_t col) const {
    return columns_[col][row];
  }

  const std::vector<std::string>& column(std::size_t col) const {
    return columns_.at(col);
  }

  /// Materialize row `r` in schema order.
  std::vector<std::string> row(std::size_t r) const;

  /// New table with only `row_indices`, in that order.
  Table take_rows(const std::vector<std::size_t>& row_indices) const;

  /// New table with only `col_indices`, in that order. An empty list
  /// throws std::invalid_argument: a table of no columns renders every row
  /// as `{}`, and is never what a caller meant (a stage's "all fields" is
  /// the table itself).
  Table project(const std::vector<std::size_t>& col_indices) const;
  Table project(const std::vector<std::string>& col_names) const;

  /// First `n` rows (or all if fewer) — used by the OPHR-sample ablation.
  Table head(std::size_t n) const;

  /// Rows sorted lexicographically by the given field priority (indices
  /// into the schema). Returns the permutation, does not reorder storage.
  std::vector<std::size_t> sorted_row_order(
      const std::vector<std::size_t>& field_priority) const;

  bool operator==(const Table& other) const;

 private:
  Schema schema_;
  std::vector<std::vector<std::string>> columns_;
  std::size_t num_rows_ = 0;
};

}  // namespace llmq::table
