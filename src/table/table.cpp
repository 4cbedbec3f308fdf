#include "table/table.hpp"

#include <algorithm>
#include <numeric>
#include <stdexcept>

namespace llmq::table {

Table::Table(Schema schema) : schema_(std::move(schema)) {
  columns_.resize(schema_.size());
}

void Table::append_row(std::vector<std::string> cells) {
  if (cells.size() != schema_.size())
    throw std::invalid_argument("Table::append_row: arity mismatch");
  for (std::size_t c = 0; c < cells.size(); ++c)
    columns_[c].push_back(std::move(cells[c]));
  ++num_rows_;
}

std::vector<std::string> Table::row(std::size_t r) const {
  std::vector<std::string> out;
  out.reserve(num_cols());
  for (std::size_t c = 0; c < num_cols(); ++c) out.push_back(columns_[c][r]);
  return out;
}

Table Table::take_rows(const std::vector<std::size_t>& row_indices) const {
  Table out(schema_);
  for (std::size_t c = 0; c < num_cols(); ++c) {
    out.columns_[c].reserve(row_indices.size());
    for (std::size_t r : row_indices) out.columns_[c].push_back(columns_[c][r]);
  }
  out.num_rows_ = row_indices.size();
  return out;
}

Table Table::project(const std::vector<std::size_t>& col_indices) const {
  if (col_indices.empty())
    throw std::invalid_argument("Table::project: no columns");
  Table out(schema_.project(col_indices));
  for (std::size_t i = 0; i < col_indices.size(); ++i)
    out.columns_[i] = columns_.at(col_indices[i]);
  out.num_rows_ = num_rows_;
  return out;
}

Table Table::project(const std::vector<std::string>& col_names) const {
  std::vector<std::size_t> idx;
  idx.reserve(col_names.size());
  for (const auto& n : col_names) idx.push_back(schema_.require(n));
  return project(idx);
}

Table Table::head(std::size_t n) const {
  std::vector<std::size_t> idx(std::min(n, num_rows_));
  std::iota(idx.begin(), idx.end(), 0);
  return take_rows(idx);
}

std::vector<std::size_t> Table::sorted_row_order(
    const std::vector<std::size_t>& field_priority) const {
  std::vector<std::size_t> order(num_rows_);
  std::iota(order.begin(), order.end(), 0);
  std::stable_sort(order.begin(), order.end(),
                   [&](std::size_t a, std::size_t b) {
                     for (std::size_t f : field_priority) {
                       const auto cmp = columns_[f][a].compare(columns_[f][b]);
                       if (cmp != 0) return cmp < 0;
                     }
                     return false;
                   });
  return order;
}

bool Table::operator==(const Table& other) const {
  return schema_ == other.schema_ && columns_ == other.columns_;
}

}  // namespace llmq::table
