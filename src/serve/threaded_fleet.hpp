#pragma once
// Real-threads fleet runtime: a ReplicaFleet whose replicas a capped pool
// of worker threads (by default hardware_concurrency - 1, at most one per
// replica) steps in parallel, in deterministic epochs, bit-identical to the
// virtual-clock oracle.
//
// ReplicaFleet (fleet.hpp) interleaves N replica sessions on one OS
// thread by always stepping the busy replica with the earliest virtual
// clock. ThreadedFleet IS that fleet — routing, submission, elasticity,
// migration landing, gauges and metrics all run ReplicaFleet's own code on
// the driver thread — plus run_epoch, which hands the stepping to the
// workers and recovers the exact same execution (every result field,
// ledger, trace byte, and gauge row) from the following protocol:
//
//   Ownership. The driver owns every replica between epochs. A worker owns
//   its replicas (every index congruent to it modulo the thread count,
//   serviced in ascending order) only inside run_epoch, and run_epoch
//   blocks the driver until every worker has reported — so no session,
//   cache, or trace sink is ever touched by two threads at once. The
//   inbox/outbox handoff (util/mpsc_queue.hpp) is the happens-before edge
//   in both directions.
//
//   Epochs. The driver computes the next virtual time T at which anything
//   observable can happen — a window deadline, the arrival that fills a
//   row-bound window, a fresh deadline started by an arrival entering an
//   empty buffer, or a gauge-sampling boundary — and calls run_epoch(T).
//   A worker steps each owned replica while it has work and its clock is
//   < T. This reproduces the sequential argmin-clock rule exactly: under
//   that rule a replica at clock >= T is never stepped while any busy
//   replica is < T, so by the first frontier >= T every busy replica has
//   been stepped precisely until its clock first reached >= T — which is
//   the worker's loop condition. Arrivals between epochs are fed lazily at
//   the next barrier; that is safe because buffering an arrival is
//   unobservable until it changes window due-ness, and every due-change
//   time is an epoch cut.
//
//   Merge. Steps are globally ordered by (pre-step clock, replica index,
//   per-replica order) — the exact order the argmin rule with its
//   lowest-index tiebreak produces — so completions and per-class ledgers
//   assemble identically. Sessions emit to the run's sink whenever the
//   driver calls into them and to their worker's private TraceLog only
//   inside an epoch; the barrier appends the merged step spans to the
//   sink, which keeps trace bytes canonical.
//
// The virtual clock stays the oracle: simulated metrics never come from
// wall time, so the threaded runtime changes only how fast the simulation
// runs (bench_threaded_fleet) — the equivalence is property-tested across
// replicas x preemption x chunking x seeds in tests/threaded/.

#include <cstdint>
#include <exception>
#include <memory>
#include <thread>
#include <vector>

#include "obs/trace.hpp"
#include "serve/fleet.hpp"
#include "serve/online.hpp"
#include "util/mpsc_queue.hpp"

namespace llmq::serve {

struct ThreadedFleetOptions {
  /// Lock stripes for each replica's PrefixCache (0 = unstriped). No
  /// replica's cache is touched by two threads at once, so striping is not
  /// needed for safety; the default keeps exercising the striped cache,
  /// whose striped == unstriped behavior is pinned in tests/cache.
  std::size_t cache_lock_stripes = 8;
  /// Worker-thread ceiling; 0 = one less than
  /// std::thread::hardware_concurrency() (floor 1), leaving a core for
  /// the driver. When the fleet has more replicas than workers, replica i
  /// is owned by worker i % T and stepped after the worker's lower-indexed
  /// replicas — pure multiplexing, so every simulated number stays
  /// bit-identical to the one-thread-per-replica runtime (pinned in
  /// tests/threaded/).
  std::size_t max_threads = 0;
};

class ThreadedFleet : public ReplicaFleet {
 public:
  /// Spawns min(n_replicas(), max_threads) worker threads, parked until
  /// the first epoch. Throws std::invalid_argument when
  /// config.n_replicas == 0.
  ThreadedFleet(const FleetConfig& config, ThreadedFleetOptions options = {});
  ~ThreadedFleet();

  ThreadedFleet(const ThreadedFleet&) = delete;
  ThreadedFleet& operator=(const ThreadedFleet&) = delete;

  /// Run one epoch: every worker steps each busy replica it owns until the
  /// replica's clock reaches `t_limit` (pass +infinity to drain), then the
  /// driver blocks on all reports (the barrier), appends the merged step
  /// spans to the trace sink, and returns completions in oracle order.
  /// A step that threw on a worker is rethrown here, after the barrier.
  std::vector<llm::RequestResult> run_epoch(double t_limit);

  /// Stop and join every worker. Idempotent; the destructor calls it.
  void shutdown();

 private:
  /// One session step, with its span in the worker's TraceLog.
  struct StepRec {
    double pre_clock = 0.0;  // session clock before the step (merge key)
    std::size_t replica = 0;
    std::size_t trace_begin = 0;
    std::size_t trace_end = 0;
    std::vector<llm::RequestResult> completed;
  };

  struct WorkerMsg {
    enum class Kind { Run, Stop };
    Kind kind = Kind::Stop;
    double limit = 0.0;  // Run: the epoch limit
  };

  /// A worker's epoch: its steps, or the exception one of them threw
  /// (rethrown on the driver by run_epoch).
  struct EpochReport {
    std::vector<StepRec> steps;
    std::exception_ptr error;
  };

  struct Worker {
    util::MpscQueue<WorkerMsg> inbox{1};
    util::MpscQueue<EpochReport> outbox{1};
    std::vector<std::size_t> owned;  // ascending replica index
    obs::TraceLog log;  // this epoch's events; cleared at the barrier
    std::thread thread;
  };

  void work(Worker& w);

  Worker& owner(std::size_t replica) {
    return *workers_[replica % workers_.size()];
  }

  std::vector<std::unique_ptr<Worker>> workers_;
  bool stopped_ = false;
};

/// run_online semantics on the real-threads runtime: the online event loop
/// shared with run_online_replicated, executing each stretch between
/// observable events as one run_epoch. Produces a bit-identical
/// OnlineRunResult to run_online(t, fds, arrivals, config) — including
/// requests, latency/per-class summaries, engine + cache ledgers, PHC, and
/// load imbalance; solve_seconds is planner wall clock and the one
/// legitimately differing field. Property-pinned in tests/threaded/.
OnlineRunResult run_online_threaded(const table::Table& t,
                                    const table::FdSet& fds,
                                    const std::vector<Arrival>& arrivals,
                                    const OnlineConfig& config,
                                    ThreadedFleetOptions options = {});

}  // namespace llmq::serve
