#include "core/windowed.hpp"

#include <algorithm>
#include <chrono>
#include <span>
#include <stdexcept>

namespace llmq::core {

WindowedResult windowed_ggr(const table::Table& t, const table::FdSet& fds,
                            const WindowedOptions& options) {
  if (t.num_rows() == 0) throw std::invalid_argument("windowed_ggr: empty table");
  using Clock = std::chrono::steady_clock;
  const auto start = Clock::now();

  const std::size_t n = t.num_rows();
  const std::size_t window =
      options.window_rows == 0 ? n : std::max<std::size_t>(1, options.window_rows);

  WindowedResult out;
  std::vector<std::size_t> row_order;
  std::vector<std::vector<std::size_t>> field_orders;
  row_order.reserve(n);
  field_orders.reserve(n);

  const EncodedTable v(t);
  const std::vector<std::uint32_t> rows = all_rows(n);
  for (std::size_t begin = 0; begin < n; begin += window) {
    const std::size_t end = std::min(n, begin + window);
    GgrResult res = ggr(
        v, std::span<const std::uint32_t>(rows).subspan(begin, end - begin),
        fds, options.ggr);
    for (std::size_t pos = 0; pos < res.ordering.num_rows(); ++pos) {
      // Remap positions in the window back to the full table.
      row_order.push_back(begin + res.ordering.row_at(pos));
      field_orders.push_back(res.ordering.fields_at(pos));
    }
    out.counters.recursion_nodes += res.counters.recursion_nodes;
    out.counters.groups_scored += res.counters.groups_scored;
    out.counters.fallbacks += res.counters.fallbacks;
    out.counters.fd_fields_skipped += res.counters.fd_fields_skipped;
    ++out.windows;
  }

  out.ordering = Ordering(std::move(row_order), std::move(field_orders));
  out.phc = phc(v, rows, out.ordering, options.ggr.measure);
  out.solve_seconds =
      std::chrono::duration<double>(Clock::now() - start).count();
  return out;
}

}  // namespace llmq::core
