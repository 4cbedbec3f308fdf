#include "core/baselines.hpp"

#include <numeric>

namespace llmq::core {

Ordering original_ordering(const table::Table& t) {
  return Ordering::identity(t.num_rows(), t.num_cols());
}

Ordering stats_fixed_ordering(const table::Table& t) {
  const table::TableStats stats = table::compute_stats(t);
  const std::vector<std::size_t> field_order = stats.fields_by_expected_score();
  const std::vector<std::size_t> row_order = t.sorted_row_order(field_order);
  return Ordering::fixed_fields(row_order, field_order);
}

Ordering sorted_original_fields(const table::Table& t) {
  std::vector<std::size_t> field_order(t.num_cols());
  std::iota(field_order.begin(), field_order.end(), 0);
  return Ordering::fixed_fields(t.sorted_row_order(field_order), field_order);
}

Ordering random_ordering(const table::Table& t, util::Rng& rng) {
  std::vector<std::size_t> rows(t.num_rows());
  std::iota(rows.begin(), rows.end(), 0);
  rng.shuffle(rows);
  std::vector<std::vector<std::size_t>> fields;
  fields.reserve(t.num_rows());
  std::vector<std::size_t> base(t.num_cols());
  std::iota(base.begin(), base.end(), 0);
  for (std::size_t r = 0; r < t.num_rows(); ++r) {
    auto fo = base;
    rng.shuffle(fo);
    fields.push_back(std::move(fo));
  }
  return Ordering(std::move(rows), std::move(fields));
}

}  // namespace llmq::core
