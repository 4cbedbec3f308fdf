#include "serve/threaded_fleet.hpp"

#include <algorithm>
#include <exception>
#include <iterator>
#include <stdexcept>

#include "serve/online_driver.hpp"

namespace llmq::serve {

ThreadedFleet::ThreadedFleet(const FleetConfig& config,
                             ThreadedFleetOptions options)
    : ReplicaFleet(config) {
  // Thread cap: leave one core for the driver, never exceed one worker
  // per replica. Replica i belongs to worker i % T.
  std::size_t cap = options.max_threads;
  if (cap == 0) {
    const unsigned hc = std::thread::hardware_concurrency();
    cap = hc > 1 ? static_cast<std::size_t>(hc) - 1 : 1;
  }
  const std::size_t n_workers = std::min(n_replicas(), cap);
  workers_.reserve(n_workers);
  for (std::size_t w = 0; w < n_workers; ++w)
    workers_.push_back(std::make_unique<Worker>());
  for (std::size_t r = 0; r < n_replicas(); ++r) owner(r).owned.push_back(r);
  // Spawn threads only once every Worker is at its final address. A failed
  // spawn must not leave the started ones unjoined.
  try {
    for (auto& w : workers_)
      w->thread = std::thread(&ThreadedFleet::work, this, std::ref(*w));
  } catch (...) {
    shutdown();
    throw;
  }
}

ThreadedFleet::~ThreadedFleet() { shutdown(); }

void ThreadedFleet::shutdown() {
  if (stopped_) return;
  stopped_ = true;
  for (auto& w : workers_) w->inbox.push({WorkerMsg::Kind::Stop, 0.0});
  for (auto& w : workers_)
    if (w->thread.joinable()) w->thread.join();
}

void ThreadedFleet::work(Worker& w) {
  WorkerMsg m;
  while (w.inbox.pop(m) && m.kind == WorkerMsg::Kind::Run) {
    obs::TraceSink* sink = trace();
    EpochReport report;
    try {
      for (std::size_t r : w.owned) {
        llm::EngineSession& session = replica_session(r);
        if (!session.has_work() || session.now() >= m.limit) continue;
        const auto track = static_cast<std::uint32_t>(r);
        if (sink) session.set_trace(&w.log, track);
        // Step until the session clock first reaches the epoch limit —
        // exactly the per-replica stepping the sequential argmin-clock
        // rule performs before the frontier crosses that limit.
        do {
          StepRec rec;
          rec.pre_clock = session.now();
          rec.replica = r;
          rec.trace_begin = w.log.size();
          rec.completed = session.step().completed;
          rec.trace_end = w.log.size();
          report.steps.push_back(std::move(rec));
        } while (session.has_work() && session.now() < m.limit);
        if (sink) session.set_trace(sink, track);
      }
    } catch (...) {
      report.error = std::current_exception();
    }
    w.outbox.push(std::move(report));
  }
}

std::vector<llm::RequestResult> ThreadedFleet::run_epoch(double t_limit) {
  for (auto& w : workers_) w->inbox.push({WorkerMsg::Kind::Run, t_limit});
  // The barrier: one report per worker. After reporting, a worker is
  // parked on its empty inbox, so the driver owns every replica and every
  // worker's trace log again until the next push.
  std::vector<StepRec> recs;
  std::exception_ptr error;
  for (auto& w : workers_) {
    EpochReport report;
    if (!w->outbox.pop(report))
      throw std::logic_error("ThreadedFleet: worker exited mid-epoch");
    if (report.error && !error) error = report.error;
    std::move(report.steps.begin(), report.steps.end(),
              std::back_inserter(recs));
  }
  if (error) std::rethrow_exception(error);
  // Oracle order: (pre-step clock, replica index, per-replica order). A
  // worker reports each replica's steps contiguously and in execution
  // order, so the stable sort on the first two keys preserves the third.
  std::stable_sort(recs.begin(), recs.end(),
                   [](const StepRec& a, const StepRec& b) {
                     if (a.pre_clock != b.pre_clock)
                       return a.pre_clock < b.pre_clock;
                     return a.replica < b.replica;
                   });
  obs::TraceSink* sink = trace();
  std::vector<llm::RequestResult> completed;
  for (StepRec& rec : recs) {
    if (sink) {
      const auto& events = owner(rec.replica).log.events();
      for (std::size_t i = rec.trace_begin; i < rec.trace_end; ++i)
        sink->emit(events[i]);
    }
    for (llm::RequestResult& res : rec.completed)
      completed.push_back(std::move(res));
  }
  if (sink)
    for (auto& w : workers_) w->log.clear();
  return completed;
}

OnlineRunResult run_online_threaded(const table::Table& t,
                                    const table::FdSet& fds,
                                    const std::vector<Arrival>& arrivals,
                                    const OnlineConfig& config,
                                    ThreadedFleetOptions options) {
  if (config.n_replicas == 0)
    throw std::invalid_argument(
        "run_online_threaded: n_replicas must be positive");
  ThreadedFleet fleet(config.fleet(), options);
  return detail::run_fleet_online(t, fds, arrivals, config, fleet, &fleet);
}

}  // namespace llmq::serve
