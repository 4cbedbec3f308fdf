#include "serve/online.hpp"

#include <algorithm>
#include <cmath>
#include <limits>
#include <memory>
#include <stdexcept>
#include <unordered_map>

#include "llm/cost_model.hpp"
#include "llm/engine_session.hpp"
#include "serve/online_driver.hpp"
#include "serve/threaded_fleet.hpp"

namespace llmq::serve {

// Arrival indexing, prompt encoding, request materialization, completion
// stitching, and finalization are shared by the single-engine loop and the
// fleet loop — see serve/online_driver.hpp.
using detail::ArrivalFeed;
using detail::count_tenant;
using detail::EncoderMap;
using detail::finalize_emitted;
using detail::index_arrivals;
using detail::InFlight;
using detail::make_request;
using detail::SessionTracker;
using detail::stitch;
using detail::validate_sessions;

OnlineRunResult run_online(const table::Table& t, const table::FdSet& fds,
                           const std::vector<Arrival>& arrivals,
                           const OnlineConfig& config) {
  if (config.n_replicas == 0)
    throw std::invalid_argument("run_online: n_replicas must be positive");
  if (config.n_replicas > 1 || config.elasticity.enabled)
    return run_online_replicated(t, fds, arrivals, config);

  OnlineRunResult out;
  out.replicas.resize(1);
  out.per_class = summarize_by_class({}, config.ttft_slo_seconds);
  if (arrivals.empty()) return out;

  validate_sessions(config, arrivals);
  auto index_of = index_arrivals(t, arrivals);

  // The run's one encoded view of `t`, built at its first use.
  const auto view = std::make_shared<query::EncodedView>(t);
  OnlineScheduler scheduler(t, fds, config.scheduler, view);
  llm::ServingEngine engine(llm::CostModel(config.model, config.gpu),
                            config.engine);
  cache::PrefixCache cache = engine.make_session_cache();
  llm::EngineSession session(engine, cache);
  if (config.trace.sink) {
    session.set_trace(config.trace.sink, 0);
    scheduler.set_trace(config.trace.sink);
  }
  obs::SampleClock sampler(config.trace.sampling() ? config.trace.timeseries
                                                   : nullptr,
                           config.trace.sample_interval_seconds);
  const llm::TaskModel task_model(config.model_profile);
  EncoderMap encoders(config.prompt, view);
  LengthPredictor predictor(config.predictor);
  scheduler.set_predictor(&predictor);
  SessionTracker tracker(config.sessions, view);
  ArrivalFeed feed(arrivals);
  std::vector<Arrival> spawned;  // feedback arrivals, in spawn order

  std::unordered_map<std::uint64_t, InFlight> inflight;
  std::vector<std::size_t> emitted_rows;
  std::vector<std::vector<std::size_t>> emitted_fields;
  emitted_rows.reserve(arrivals.size());
  emitted_fields.reserve(arrivals.size());

  const auto dispatch = [&](const Window& w) {
    ++out.windows;
    out.solve_seconds += w.solve_seconds;
    for (std::size_t i = 0; i < w.arrivals.size(); ++i) {
      const Arrival& a = w.arrivals[i];
      const std::vector<std::size_t>& fo = w.field_orders[i];
      tokenizer::TokenSeq prompt =
          a.turn > 0 ? tracker.make_child_prompt(a, t, fo)
                     : encoders.for_tenant(a.tenant).encode(t, a.row, fo);
      llm::Request r =
          make_request(a, std::move(prompt), task_model, config, &predictor);
      out.replicas[0].routed_prompt_tokens += r.prompt.size();
      tracker.on_dispatch(a, r.prompt);
      session.submit(std::move(r));
      inflight.emplace(a.id, InFlight{a, w.planned_at, 0});
      emitted_rows.push_back(index_of.at(a.id));
      emitted_fields.push_back(fo);
    }
  };

  const auto record = [&](const llm::RequestResult& res) {
    const InFlight& f = inflight.at(res.id);
    ServedRequest sr = stitch(res, f);
    count_tenant(out.per_tenant, sr.tenant);
    out.requests.push_back(sr);
    if (predictor.enabled()) predictor.observe(f.arrival.tenant, res.output_tokens);
    if (auto child = tracker.on_complete(f.arrival, res)) {
      index_of.emplace(child->id, arrivals.size() + spawned.size());
      spawned.push_back(*child);
      feed.push_feedback(*child);
    }
    inflight.erase(res.id);
  };

  const auto feed_due = [&](double now) {
    while (!feed.exhausted() && feed.next_time() <= now) {
      const Arrival a = feed.pop();
      if (a.turn > 0 && config.trace.sink)
        config.trace.sink->emit({obs::EventKind::TurnSpawn,
                                 static_cast<std::uint8_t>(a.priority),
                                 obs::kGlobalTrack, a.time, a.id, a.session,
                                 a.turn, a.parent});
      scheduler.push(a);
    }
  };

  // ---- Event loop over the session's simulated clock. ----
  while (!feed.exhausted() || scheduler.buffered() > 0 || session.has_work()) {
    if (sampler.due(session.now())) {
      sampler.series()->append(session.now(), 0, session.gauges());
      sampler.advance_past(session.now());
    }
    // 1. Feed arrivals that have occurred (static stream + spawned turns).
    feed_due(session.now());
    // 2. Dispatch every due window.
    while (auto w = scheduler.pop_ready(session.now())) dispatch(*w);
    // 3. Execute or advance time.
    if (session.has_work()) {
      const llm::EngineSession::StepEvents ev = session.step();
      for (const llm::RequestResult& res : ev.completed) record(res);
      continue;
    }
    double t_next = std::min(scheduler.next_deadline(), feed.next_time());
    if (std::isfinite(t_next)) {
      session.advance_to(t_next);
    } else if (auto w = scheduler.flush(session.now())) {
      // Stream over, no deadline pending: drain the partial window.
      dispatch(*w);
    } else {
      break;  // defensive: no arrivals, no buffer, no work
    }
  }

  out.replicas[0].requests = out.requests.size();
  out.replicas[0].engine = session.metrics();
  out.engine = out.replicas[0].engine;
  out.load_imbalance = 1.0;
  if (spawned.empty()) {
    finalize_emitted(out, t, arrivals, config, std::move(emitted_rows),
                     std::move(emitted_fields), view);
  } else {
    std::vector<Arrival> all = arrivals;
    all.insert(all.end(), spawned.begin(), spawned.end());
    finalize_emitted(out, t, all, config, std::move(emitted_rows),
                     std::move(emitted_fields), view);
  }
  return out;
}

OnlineRunResult run_online_replicated(const table::Table& t,
                                      const table::FdSet& fds,
                                      const std::vector<Arrival>& arrivals,
                                      const OnlineConfig& config) {
  if (config.n_replicas == 0)
    throw std::invalid_argument(
        "run_online_replicated: n_replicas must be positive");
  ReplicaFleet fleet(config.fleet());
  return detail::run_fleet_online(t, fds, arrivals, config, fleet, nullptr);
}

namespace detail {

OnlineRunResult run_fleet_online(const table::Table& t,
                                 const table::FdSet& fds,
                                 const std::vector<Arrival>& arrivals,
                                 const OnlineConfig& config,
                                 ReplicaFleet& fleet, ThreadedFleet* epochs) {
  OnlineRunResult out;
  out.replicas.resize(config.n_replicas);
  out.per_class = summarize_by_class({}, config.ttft_slo_seconds);
  if (arrivals.empty()) return out;

  validate_sessions(config, arrivals);
  auto index_of = index_arrivals(t, arrivals);

  // The run's one encoded view of `t`, built at its first use.
  const auto view = std::make_shared<query::EncodedView>(t);
  OnlineScheduler scheduler(t, fds, config.scheduler, view);
  if (config.trace.sink) {
    fleet.set_trace(config.trace.sink);
    scheduler.set_trace(config.trace.sink);
  }
  obs::SampleClock sampler(config.trace.sampling() ? config.trace.timeseries
                                                   : nullptr,
                           config.trace.sample_interval_seconds);
  const llm::TaskModel task_model(config.model_profile);
  EncoderMap encoders(config.prompt, view);
  LengthPredictor predictor(config.predictor);
  scheduler.set_predictor(&predictor);
  SessionTracker tracker(config.sessions, view);
  ArrivalFeed feed(arrivals);
  std::vector<Arrival> spawned;  // feedback arrivals, in spawn order

  std::unordered_map<std::uint64_t, InFlight> inflight;
  std::vector<std::size_t> emitted_rows;
  std::vector<std::vector<std::size_t>> emitted_fields;
  emitted_rows.reserve(arrivals.size());
  emitted_fields.reserve(arrivals.size());

  // The merged clock. Never behind any busy replica's execution frontier;
  // catches up to the furthest replica when everything idles
  // (ReplicaFleet::frontier).
  double now = 0.0;

  const auto dispatch = [&](const Window& w) {
    ++out.windows;
    out.solve_seconds += w.solve_seconds;
    for (std::size_t i = 0; i < w.arrivals.size(); ++i) {
      const Arrival& a = w.arrivals[i];
      const std::vector<std::size_t>& fo = w.field_orders[i];
      tokenizer::TokenSeq prompt =
          a.turn > 0 ? tracker.make_child_prompt(a, t, fo)
                     : encoders.for_tenant(a.tenant).encode(t, a.row, fo);
      llm::Request req =
          make_request(a, std::move(prompt), task_model, config, &predictor);
      tracker.on_dispatch(a, req.prompt);
      const std::size_t target = fleet.dispatch(std::move(req), a.tenant, now);
      inflight.emplace(a.id, InFlight{a, w.planned_at, target});
      emitted_rows.push_back(index_of.at(a.id));
      emitted_fields.push_back(fo);
    }
  };

  // Completions arrive in oracle order (one step's, or one epoch's merged
  // by the barrier), so predictor observations and feedback-arrival id
  // allocation are the same under both drivers.
  const auto record = [&](const llm::RequestResult& res) {
    const InFlight& f = inflight.at(res.id);
    ServedRequest sr = stitch(res, f);
    count_tenant(out.per_tenant, sr.tenant);
    out.requests.push_back(sr);
    if (predictor.enabled()) predictor.observe(f.arrival.tenant, res.output_tokens);
    if (auto child = tracker.on_complete(f.arrival, res)) {
      index_of.emplace(child->id, arrivals.size() + spawned.size());
      spawned.push_back(*child);
      feed.push_feedback(*child);
    }
    inflight.erase(res.id);
  };

  const auto feed_due = [&](double t_now) {
    while (!feed.exhausted() && feed.next_time() <= t_now) {
      const Arrival a = feed.pop();
      if (a.turn > 0 && config.trace.sink)
        config.trace.sink->emit({obs::EventKind::TurnSpawn,
                                 static_cast<std::uint8_t>(a.priority),
                                 obs::kGlobalTrack, a.time, a.id, a.session,
                                 a.turn, a.parent});
      scheduler.push(a);
    }
  };

  // The epoch cut (threaded driver only): the next virtual time anything
  // observable can happen. Every source of window due-ness (and the
  // sampling boundary) is represented; extra cuts would be harmless (the
  // barrier replays the same feed/dispatch code the virtual driver runs
  // every iteration), a missing one would break planned_at times. All
  // sources are > `now` at the point of the call: boundaries were
  // advanced past, due windows popped, and occurred arrivals fed.
  const auto next_cut = [&]() {
    double cut = std::numeric_limits<double>::infinity();
    if (sampler.sampling()) cut = std::min(cut, sampler.next_boundary());
    // Wait bound of the currently buffered window (covers later pushes
    // too: the deadline is the *oldest* arrival's, so nothing buffered
    // after it can tighten it).
    cut = std::min(cut, scheduler.next_deadline());
    const SchedulerOptions& sopt = scheduler.options();
    if (tracker.active()) {
      // Session streams: cut at every pending arrival, static or spawned.
      // Coarser than the static lookaheads below but still exact — extra
      // cuts are harmless, and a barrier at each arrival covers both a
      // deadline start and a row-bound fill at that arrival. Turns not in
      // the feed yet (their parent is still running) are handled by the
      // epoch cap in the loop, not here.
      return std::min(cut, feed.next_time());
    }
    const std::size_t n = arrivals.size();
    const std::size_t next = feed.next_static();
    if (next < n) {
      // A future arrival entering an empty buffer starts a new deadline.
      if (scheduler.buffered() == 0 && sopt.max_wait_seconds > 0)
        cut = std::min(cut, arrivals[next].time + sopt.max_wait_seconds);
      // The arrival that fills the row bound makes a window due at its
      // own arrival time.
      if (sopt.window_rows > 0) {
        const std::size_t fill_idx =
            next + (sopt.window_rows - scheduler.buffered()) - 1;
        if (fill_idx < n) cut = std::min(cut, arrivals[fill_idx].time);
      }
    }
    return cut;
  };

  // ---- Merged event loop over the replicas' virtual clocks. ----
  while (!feed.exhausted() || scheduler.buffered() > 0 || fleet.any_work()) {
    // 0. Advance the merged clock to the execution frontier.
    now = fleet.frontier(now);
    if (sampler.due(now)) {
      fleet.sample_gauges(*sampler.series(), now);
      sampler.advance_past(now);
    }
    // 1. Feed arrivals that have occurred (static stream + spawned turns).
    feed_due(now);
    // 2. Dispatch every due window (routing each request).
    while (auto w = scheduler.pop_ready(now)) dispatch(*w);
    // 3. Execute.
    if (fleet.any_work()) {
      if (epochs == nullptr) {
        // Virtual clock: step the busy replica with the earliest clock.
        ReplicaFleet::StepResult st = fleet.step();
        for (const llm::RequestResult& res : st.completed) record(res);
        continue;
      }
      // Threaded: one parallel epoch up to the next observable event. A
      // completion inside the epoch may spawn a follow-up turn that is not
      // in the feed yet (it only materializes at this barrier's record),
      // so the epoch is additionally capped at frontier + the smallest
      // in-flight think-time gap: any such turn arrives strictly after
      // its parent's finish plus that gap, hence strictly after the cap —
      // it becomes a regular next_cut() source before any replica can
      // step past it.
      double limit = next_cut();
      if (tracker.active())
        limit = std::min(limit, now + tracker.min_inflight_gap());
      for (const llm::RequestResult& res : epochs->run_epoch(limit))
        record(res);
      continue;
    }
    // 4. Everything idle: jump to the next arrival or deadline, or drain.
    double t_next = std::min(scheduler.next_deadline(), feed.next_time());
    if (std::isfinite(t_next)) {
      now = std::max(now, t_next);
    } else if (auto w = scheduler.flush(now)) {
      // Stream over, no deadline pending: drain the partial window.
      dispatch(*w);
    } else {
      break;  // defensive: no arrivals, no buffer, no work
    }
  }

  out.replicas = fleet.replica_metrics();
  out.engine = aggregate_replica_engines(out.replicas);
  out.load_imbalance = fleet.load_imbalance();
  if (spawned.empty()) {
    finalize_emitted(out, t, arrivals, config, std::move(emitted_rows),
                     std::move(emitted_fields), view);
  } else {
    std::vector<Arrival> all = arrivals;
    all.insert(all.end(), spawned.begin(), spawned.end());
    finalize_emitted(out, t, all, config, std::move(emitted_rows),
                     std::move(emitted_fields), view);
  }
  return out;
}

}  // namespace detail

}  // namespace llmq::serve
