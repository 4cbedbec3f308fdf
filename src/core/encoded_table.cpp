#include "core/encoded_table.hpp"

#include <algorithm>
#include <limits>
#include <numeric>
#include <stdexcept>
#include <unordered_map>
#include <utility>

#include "tokenizer/tokenizer.hpp"

namespace llmq::core {

EncodedTable::EncodedTable(const table::Table& t)
    : table_(&t), n_rows_(t.num_rows()) {
  if (n_rows_ > std::numeric_limits<std::uint32_t>::max())
    throw std::invalid_argument("EncodedTable: more rows than u32 codes");
  const auto& tok = tokenizer::global_tokenizer();
  const std::size_t m = t.num_cols();
  codes_.resize(m * n_rows_);
  base_.reserve(m + 1);
  base_.push_back(0);

  // Per column: number values in first-seen order, then renumber them in
  // value order so that codes compare like the strings they stand for.
  std::unordered_map<std::string_view, std::uint32_t> seen;
  std::vector<std::pair<std::string_view, std::uint32_t>> distinct;  // value, row
  std::vector<std::uint32_t> order, rank;
  for (std::size_t c = 0; c < m; ++c) {
    std::uint32_t* col = codes_.data() + c * n_rows_;
    seen.clear();
    seen.reserve(n_rows_);
    distinct.clear();
    for (std::size_t r = 0; r < n_rows_; ++r) {
      const std::string_view v = t.cell(r, c);
      const auto [it, inserted] =
          seen.try_emplace(v, static_cast<std::uint32_t>(distinct.size()));
      if (inserted) distinct.emplace_back(v, static_cast<std::uint32_t>(r));
      col[r] = it->second;
    }
    order.resize(distinct.size());
    std::iota(order.begin(), order.end(), 0u);
    std::sort(order.begin(), order.end(), [&](std::uint32_t a, std::uint32_t b) {
      return distinct[a].first < distinct[b].first;
    });
    rank.resize(distinct.size());
    for (std::uint32_t i = 0; i < order.size(); ++i) rank[order[i]] = i;
    for (std::size_t r = 0; r < n_rows_; ++r) col[r] = rank[col[r]];
    for (const std::uint32_t i : order) {
      first_row_.push_back(distinct[i].second);
      tokens_.push_back(static_cast<std::uint32_t>(tok.count(distinct[i].first)));
    }
    base_.push_back(static_cast<std::uint32_t>(first_row_.size()));
  }
}

std::vector<std::uint32_t> all_rows(std::size_t n) {
  std::vector<std::uint32_t> rows(n);
  std::iota(rows.begin(), rows.end(), 0u);
  return rows;
}

}  // namespace llmq::core
