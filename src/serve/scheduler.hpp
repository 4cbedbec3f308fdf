#pragma once
// Cache-aware online request scheduler with windowed reordering.
//
// The scheduler buffers stream arrivals into bounded windows and decides
// the order in which each window's requests reach the serving engine. A
// window is dispatched when either bound trips:
//
//   * row bound   — `window_rows` arrivals are buffered (0 = unbounded);
//   * wait bound  — the oldest buffered arrival has waited
//                   `max_wait_seconds` (0 = no deadline).
//
// Per-window ordering policies (the online counterparts of the paper's
// batch arms):
//
//   * Fifo        — arrival order, schema field order (online "Original");
//   * WindowedGgr — GGR field+row reordering over the window, i.e. one
//                   window of core/windowed.hpp run on demand;
//   * TenantGgr   — partition the window by tenant (first-arrival order),
//                   GGR within each partition. Tenant prompts carry
//                   tenant-specific instruction prefixes, so keeping a
//                   tenant's rows contiguous protects that shared prefix
//                   from interleaved eviction.
//
// The scheduler never reorders *across* windows: concatenated window
// emissions preserve the streaming constraint that core/windowed.hpp
// formalizes, which is what makes the online schedule directly comparable
// to offline windowed_ggr (see tests/serve/).

#include <deque>
#include <memory>
#include <optional>
#include <span>
#include <string>
#include <vector>

#include "core/ggr.hpp"
#include "obs/trace.hpp"
#include "query/prompt.hpp"
#include "serve/length_predictor.hpp"
#include "serve/workload.hpp"
#include "table/fd.hpp"
#include "table/table.hpp"

namespace llmq::serve {

enum class Policy { Fifo, WindowedGgr, TenantGgr };

std::string to_string(Policy p);

/// At least one bound must be set: `window_rows == 0` together with
/// `max_wait_seconds <= 0` would never dispatch (the scheduler constructor
/// throws std::invalid_argument for that combination).
struct SchedulerOptions {
  Policy policy = Policy::WindowedGgr;
  std::size_t window_rows = 64;   // dispatch threshold; 0 = unbounded
  double max_wait_seconds = 0.0;  // oldest-arrival deadline; 0 = none
  core::GgrOptions ggr;           // planner options for the GGR policies

  /// Strict-priority emission: partition each window by the arrivals'
  /// effective class at plan time (aged by `aging_seconds`, see
  /// llm::aged_class) and run `policy` within each partition, emitting
  /// Interactive first. Off = classic single-class planning (bit-exact
  /// with the pre-priority scheduler). The engine applies the same
  /// strict-priority rule at admission, so this mainly shortens the
  /// dispatch-to-admission gap for urgent rows inside large windows.
  bool priority_order = false;
  /// Aging horizon for the effective class (0 = no aging). Use the same
  /// value as EngineConfig::priority_aging_seconds so the scheduler and
  /// the engine agree on what "overdue" means.
  double aging_seconds = 0.0;

  /// Shortest-predicted-job-first dispatch: stable-sort each planned
  /// (sub-)batch by the bound LengthPredictor's per-tenant prediction
  /// before the policy runs, so short-predicted requests reach the engine
  /// earlier within their window (and their class partition, when
  /// priority_order is on). Requires set_predictor(); a null or disabled
  /// predictor leaves the order untouched. Note the GGR policies reorder
  /// rows for cache affinity anyway — SPJF dispatch bites hardest under
  /// Fifo, while the engine-side EngineConfig::spjf reorders admission
  /// regardless of the window policy.
  bool spjf = false;
};

/// One dispatched window: arrivals in emission (post-reordering) order and
/// the per-request field order over the backing table's schema.
struct Window {
  std::vector<Arrival> arrivals;                       // emission order
  std::vector<std::vector<std::size_t>> field_orders;  // parallel to arrivals
  double planned_at = 0.0;   // simulated dispatch time
  double solve_seconds = 0.0;  // planner wall-clock spent on this window
};

class OnlineScheduler {
 public:
  /// `t` backs the arrivals' row indices; both `t` and `fds` must outlive
  /// the scheduler. The GGR policies plan windows as spans of `t`'s rows
  /// on `view`, the run's encoded view of `t` (null: the scheduler's own);
  /// it is built at the first planned window, so Fifo never builds it.
  OnlineScheduler(const table::Table& t, const table::FdSet& fds,
                  SchedulerOptions options,
                  std::shared_ptr<query::EncodedView> view = nullptr);

  /// Buffer one arrival. Arrivals must be pushed in time order.
  void push(const Arrival& a);

  std::size_t buffered() const { return buffer_.size(); }

  /// Simulated time at which the wait bound next trips; +infinity when the
  /// buffer is empty or no deadline is configured.
  double next_deadline() const;

  /// True when a window is due at simulated time `now`.
  bool ready(double now) const;

  /// Dispatch the next due window (row bound: exactly `window_rows`
  /// arrivals; wait bound: the whole buffer). std::nullopt when not due.
  std::optional<Window> pop_ready(double now);

  /// Dispatch whatever is buffered regardless of bounds (stream drain).
  std::optional<Window> flush(double now);

  const SchedulerOptions& options() const { return opt_; }

  /// Bind an event sink: every dispatched window (pop_ready/flush) emits
  /// a WindowPlan event on the driver's global track. nullptr disables.
  void set_trace(obs::TraceSink* sink) { trace_ = sink; }

  /// Bind the output-length predictor SchedulerOptions::spjf sorts by
  /// (caller-owned, must outlive the scheduler; nullptr disables).
  void set_predictor(const LengthPredictor* p) { predictor_ = p; }

 private:
  Window plan_window(std::vector<Arrival> batch, double now) const;
  /// WindowPlan emission for one dispatched window.
  void trace_window(const Window& w) {
    if (!trace_) return;
    trace_->emit({obs::EventKind::WindowPlan, 0, obs::kGlobalTrack,
                  w.planned_at, window_seq_++, w.arrivals.size(),
                  static_cast<std::uint64_t>(opt_.policy), buffer_.size()});
  }
  /// Run the configured policy over one (sub-)batch, appending its
  /// emission to `w`. With spjf + a live predictor, stable-sorts the
  /// batch by predicted length first (ties keep arrival order).
  void plan_into(Window& w, std::vector<Arrival> batch) const;
  /// GGR over the table rows `rows`; adds the planner's wall time (with
  /// the view's encode, at the first window) to w.solve_seconds.
  core::GgrResult plan_rows(Window& w,
                            std::span<const std::uint32_t> rows) const;

  const table::Table& table_;
  const table::FdSet& fds_;
  std::shared_ptr<query::EncodedView> view_;
  SchedulerOptions opt_;
  std::deque<Arrival> buffer_;
  obs::TraceSink* trace_ = nullptr;
  const LengthPredictor* predictor_ = nullptr;
  std::uint64_t window_seq_ = 0;
};

}  // namespace llmq::serve
