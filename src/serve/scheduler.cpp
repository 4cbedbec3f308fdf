#include "serve/scheduler.hpp"

#include <algorithm>
#include <array>
#include <chrono>
#include <limits>
#include <numeric>
#include <stdexcept>
#include <unordered_map>

namespace llmq::serve {

std::string to_string(Policy p) {
  switch (p) {
    case Policy::Fifo: return "FIFO";
    case Policy::WindowedGgr: return "Windowed-GGR";
    case Policy::TenantGgr: return "Tenant-GGR";
  }
  return "?";
}

OnlineScheduler::OnlineScheduler(const table::Table& t,
                                 const table::FdSet& fds,
                                 SchedulerOptions options,
                                 std::shared_ptr<query::EncodedView> view)
    : table_(t),
      fds_(fds),
      view_(view ? std::move(view) : std::make_shared<query::EncodedView>(t)),
      opt_(std::move(options)) {
  // With no row bound and no wait deadline, ready() can never fire and the
  // whole stream silently degrades into one end-of-stream flush batch.
  // That configuration is always a bug; reject it up front.
  if (opt_.window_rows == 0 && opt_.max_wait_seconds <= 0.0)
    throw std::invalid_argument(
        "OnlineScheduler: window_rows == 0 with max_wait_seconds <= 0 would "
        "never dispatch; set a row bound or a wait deadline");
}

void OnlineScheduler::push(const Arrival& a) { buffer_.push_back(a); }

double OnlineScheduler::next_deadline() const {
  if (buffer_.empty() || opt_.max_wait_seconds <= 0.0)
    return std::numeric_limits<double>::infinity();
  return buffer_.front().time + opt_.max_wait_seconds;
}

bool OnlineScheduler::ready(double now) const {
  if (opt_.window_rows > 0 && buffer_.size() >= opt_.window_rows) return true;
  return now >= next_deadline();
}

std::optional<Window> OnlineScheduler::pop_ready(double now) {
  if (!ready(now)) return std::nullopt;
  const bool full = opt_.window_rows > 0 && buffer_.size() >= opt_.window_rows;
  // Row-bound windows take exactly window_rows (the rest keeps buffering);
  // a deadline flush empties the buffer — everything in it is equally due.
  const std::size_t take = full ? opt_.window_rows : buffer_.size();
  std::vector<Arrival> batch(buffer_.begin(),
                             buffer_.begin() + static_cast<long>(take));
  buffer_.erase(buffer_.begin(), buffer_.begin() + static_cast<long>(take));
  Window w = plan_window(std::move(batch), now);
  trace_window(w);
  return w;
}

std::optional<Window> OnlineScheduler::flush(double now) {
  if (buffer_.empty()) return std::nullopt;
  std::vector<Arrival> batch(buffer_.begin(), buffer_.end());
  buffer_.clear();
  Window w = plan_window(std::move(batch), now);
  trace_window(w);
  return w;
}

Window OnlineScheduler::plan_window(std::vector<Arrival> batch,
                                    double now) const {
  Window w;
  w.planned_at = now;
  w.arrivals.reserve(batch.size());
  w.field_orders.reserve(batch.size());
  if (!opt_.priority_order) {
    plan_into(w, std::move(batch));
    return w;
  }
  // Strict-priority emission: stable-partition by effective class at plan
  // time (aging promotes overdue arrivals), plan each class with the
  // configured policy, emit Interactive first. Reordering happens only
  // within a class, so the per-class FIFO order — which the engine's
  // tie-breaking relies on for the aging guarantee — is preserved. One
  // pass over the batch: each arrival's effective class is computed
  // exactly once, not once per candidate class.
  std::array<std::vector<Arrival>, llm::kNumPriorityClasses> parts;
  for (const Arrival& a : batch) {
    const auto c = static_cast<std::size_t>(
        llm::aged_class(a.priority, now - a.time, opt_.aging_seconds));
    parts[c].push_back(a);
  }
  for (auto& part : parts)
    if (!part.empty()) plan_into(w, std::move(part));
  return w;
}

void OnlineScheduler::plan_into(Window& w, std::vector<Arrival> batch) const {
  if (opt_.spjf && predictor_ != nullptr && predictor_->enabled()) {
    // Stable: equal predictions (in particular, same-tenant runs) keep
    // their arrival order, so SPJF never inverts FIFO gratuitously.
    std::stable_sort(batch.begin(), batch.end(),
                     [this](const Arrival& x, const Arrival& y) {
                       return predictor_->predict(x.tenant) <
                              predictor_->predict(y.tenant);
                     });
  }
  const std::size_t m = table_.num_cols();
  std::vector<std::size_t> schema_order(m);
  std::iota(schema_order.begin(), schema_order.end(), 0);

  switch (opt_.policy) {
    case Policy::Fifo: {
      for (const Arrival& a : batch) {
        w.arrivals.push_back(a);
        w.field_orders.push_back(schema_order);
      }
      break;
    }
    case Policy::WindowedGgr: {
      std::vector<std::uint32_t> rows;
      rows.reserve(batch.size());
      for (const auto& a : batch) rows.push_back(a.row);
      const core::GgrResult res = plan_rows(w, rows);
      for (std::size_t pos = 0; pos < res.ordering.num_rows(); ++pos) {
        w.arrivals.push_back(batch[res.ordering.row_at(pos)]);
        w.field_orders.push_back(res.ordering.fields_at(pos));
      }
      break;
    }
    case Policy::TenantGgr: {
      // Partition by tenant in first-arrival order, GGR each partition.
      std::vector<std::uint32_t> tenant_order;
      std::unordered_map<std::uint32_t, std::vector<std::size_t>> groups;
      for (std::size_t i = 0; i < batch.size(); ++i) {
        auto [it, inserted] = groups.try_emplace(batch[i].tenant);
        if (inserted) tenant_order.push_back(batch[i].tenant);
        it->second.push_back(i);
      }
      for (std::uint32_t tenant : tenant_order) {
        const std::vector<std::size_t>& idx = groups[tenant];
        std::vector<std::uint32_t> rows;
        rows.reserve(idx.size());
        for (std::size_t i : idx) rows.push_back(batch[i].row);
        const core::GgrResult res = plan_rows(w, rows);
        for (std::size_t pos = 0; pos < res.ordering.num_rows(); ++pos) {
          w.arrivals.push_back(batch[idx[res.ordering.row_at(pos)]]);
          w.field_orders.push_back(res.ordering.fields_at(pos));
        }
      }
      break;
    }
  }
}

core::GgrResult OnlineScheduler::plan_rows(
    Window& w, std::span<const std::uint32_t> rows) const {
  const auto start = std::chrono::steady_clock::now();
  core::GgrResult res = core::ggr(view_->codes(table_), rows, fds_, opt_.ggr);
  w.solve_seconds += std::chrono::duration<double>(
                         std::chrono::steady_clock::now() - start)
                         .count();
  return res;
}

}  // namespace llmq::serve
