#pragma once
// Shared internals of the online serving drivers.
//
// run_online's single-engine loop (online.cpp) is the reference the fleet
// is pinned against at n_replicas == 1; run_fleet_online is the one fleet
// event loop, which run_online_replicated (virtual clock) and
// run_online_threaded (real threads, threaded_fleet.cpp) both run.
// Everything that defines the serving semantics outside the loop —
// arrival validation, per-tenant prompt encoding, request
// materialization, completion stitching, and result finalization — lives
// here so the loops cannot drift apart. Internal to src/serve; not part
// of the public API.

#include <cstdint>
#include <memory>
#include <optional>
#include <set>
#include <span>
#include <unordered_map>
#include <vector>

#include "serve/online.hpp"

namespace llmq::serve {
class ThreadedFleet;  // threaded_fleet.hpp
}  // namespace llmq::serve

namespace llmq::serve::detail {

/// Bookkeeping for a dispatched, not-yet-finished request.
struct InFlight {
  Arrival arrival;
  double dispatch_time = 0.0;
  std::size_t replica = 0;
};

/// Validate the stream (time-sorted, unique ids, rows in range) and build
/// id -> arrival index (for the emitted Ordering over the arrival table).
std::unordered_map<std::uint64_t, std::size_t> index_arrivals(
    const table::Table& t, const std::vector<Arrival>& arrivals);

/// When config.sessions is set, the arrivals handed to the driver must be
/// exactly sessions->roots (same ids, same session tags, in order) — the
/// follow-up planner indexes plans by root position. Throws
/// std::invalid_argument on any mismatch; no-op when sessions is null.
void validate_sessions(const OnlineConfig& config,
                       const std::vector<Arrival>& arrivals);

/// Merged arrival source: the static time-sorted stream plus feedback
/// arrivals (session follow-up turns) injected mid-run. Pop order is
/// (time, id) across both sources — deterministic because feedback ids
/// are allocated in oracle completion order, which every driver
/// reproduces bit-identically.
class ArrivalFeed {
 public:
  explicit ArrivalFeed(const std::vector<Arrival>& statics)
      : statics_(&statics) {}

  bool exhausted() const { return next_ >= statics_->size() && heap_.empty(); }

  /// Index of the next unfed static arrival (== size when drained) — the
  /// threaded driver's static-stream epoch cuts key off this.
  std::size_t next_static() const { return next_; }

  /// Time of the next arrival from either source; +infinity when drained.
  double next_time() const;

  /// Remove and return the (time, id)-least pending arrival. Precondition:
  /// !exhausted().
  Arrival pop();

  /// Inject a feedback arrival. Its time may be anywhere at or after the
  /// current feed position; the heap merges it into (time, id) order.
  void push_feedback(const Arrival& a);

 private:
  const std::vector<Arrival>* statics_;
  std::size_t next_ = 0;
  std::vector<Arrival> heap_;  // min-heap on (time, id)
};

/// Session follow-up engine, shared verbatim by every driver so the
/// feedback stream they spawn is identical. Lifecycle per spawning
/// arrival: on_dispatch (remember the parent's prompt + register its
/// think-time gap) -> on_complete (materialize the child arrival at
/// finish + gap and precompute its prompt prefix = parent prompt +
/// synthetic output) -> make_child_prompt at the child's own dispatch
/// (prefix + segment label + the follow-up row with the child's planned
/// field order, from `view`'s segments). Inactive (null sessions)
/// trackers no-op.
class SessionTracker {
 public:
  /// `view` is the run's encoded view (null: the tracker's own, bound to
  /// the first table it is handed).
  explicit SessionTracker(const SessionWorkload* sessions,
                          std::shared_ptr<query::EncodedView> view = nullptr)
      : sessions_(sessions),
        next_id_(sessions != nullptr ? sessions->roots.size() : 0),
        view_(view ? std::move(view)
                   : std::make_shared<query::EncodedView>()) {}

  bool active() const { return sessions_ != nullptr; }

  /// Will this arrival spawn a follow-up turn when it completes?
  bool will_spawn(const Arrival& a) const {
    return sessions_ != nullptr && a.session != kNoSession &&
           a.turn < sessions_->plans[a.session].follow_ups.size();
  }

  void on_dispatch(const Arrival& a, const tokenizer::TokenSeq& prompt);

  /// The follow-up arrival spawned by this completion (nullopt when the
  /// session is exhausted or inactive). Call once per completion, in
  /// oracle completion order — child ids are allocated sequentially here.
  std::optional<Arrival> on_complete(const Arrival& a,
                                     const llm::RequestResult& res);

  /// Materialize a follow-up turn's full prompt (consumes the stored
  /// prefix; call exactly once per spawned child, at its dispatch).
  tokenizer::TokenSeq make_child_prompt(const Arrival& a,
                                        const table::Table& t,
                                        std::span<const std::size_t> fo);

  /// Smallest finish->arrival gap among dispatched-but-unfinished
  /// spawning requests; +infinity when none. The threaded driver caps
  /// every epoch at frontier + this so a turn born mid-epoch matures
  /// strictly after the barrier (the feedback-arrival clock rule,
  /// DESIGN.md §12) — keeping the epoch cut set a superset of all
  /// observable due-times.
  double min_inflight_gap() const;

 private:
  struct SpawnCtx {
    tokenizer::TokenSeq prompt;  // the parent's prompt, verbatim
    double gap = 0.0;
  };

  const SessionWorkload* sessions_;
  std::uint64_t next_id_ = 0;
  std::shared_ptr<query::EncodedView> view_;
  std::unordered_map<std::uint64_t, SpawnCtx> ctx_;  // by parent id
  /// Child id -> parent prompt + synthetic parent output: the token-exact
  /// prefix contract the session property tests (and audit_trace) pin.
  std::unordered_map<std::uint64_t, tokenizer::TokenSeq> child_prefix_;
  std::multiset<double> gaps_;  // in-flight spawners' gaps
};

/// Per-tenant prompt encoders, built lazily: each tenant's instruction
/// prefix differs, so rows share the instruction prefix only within a
/// tenant — the structure that makes Tenant-GGR partitioning (and
/// tenant-affine routing) matter. Every tenant's encoder reads one view:
/// `view`, the run's (null: the map's own, bound to the first table
/// encoded).
class EncoderMap {
 public:
  explicit EncoderMap(const query::PromptTemplate& base,
                      std::shared_ptr<query::EncodedView> view = nullptr)
      : base_(base),
        view_(view ? std::move(view)
                   : std::make_shared<query::EncodedView>()) {}

  query::PromptEncoder& for_tenant(std::uint32_t tenant) {
    auto it = encoders_.find(tenant);
    if (it == encoders_.end()) {
      query::PromptTemplate tmpl = base_;
      tmpl.system_prompt += " [tenant " + std::to_string(tenant) + "]";
      it = encoders_
               .emplace(tenant, query::PromptEncoder(std::move(tmpl), view_))
               .first;
    }
    return it->second;
  }

 private:
  query::PromptTemplate base_;
  std::shared_ptr<query::EncodedView> view_;
  std::unordered_map<std::uint32_t, query::PromptEncoder> encoders_;
};

/// Materialize the engine request for an arrival: id/row tagging, the
/// priority class, and the task model's per-request decode length (keyed
/// so the same arrival always gets the same length, scaled by the class
/// and per-tenant output multipliers). A non-null enabled predictor
/// stamps predicted_output_tokens (0 otherwise = no prediction).
llm::Request make_request(const Arrival& a, tokenizer::TokenSeq prompt,
                          const llm::TaskModel& task_model,
                          const OnlineConfig& config,
                          const LengthPredictor* predictor);

/// Join an engine completion with its dispatch bookkeeping.
ServedRequest stitch(const llm::RequestResult& res, const InFlight& f);

void count_tenant(std::vector<std::size_t>& per_tenant, std::uint32_t tenant);

/// Latency/per-class summaries, the emitted Ordering, and PHC over the
/// arrival-ordered rows — identical across drivers by construction. PHC
/// reads `view`, the run's encoded view of `t` (null: the call encodes
/// `t` itself).
void finalize_emitted(OnlineRunResult& out, const table::Table& t,
                      const std::vector<Arrival>& arrivals,
                      const OnlineConfig& config,
                      std::vector<std::size_t> emitted_rows,
                      std::vector<std::vector<std::size_t>> emitted_fields,
                      std::shared_ptr<query::EncodedView> view = nullptr);

/// The fleet event loop: frontier -> gauge sample -> feed -> dispatch due
/// windows -> execute -> idle jump / final flush. With `epochs` null the
/// execute step is fleet.step() (the virtual-clock oracle); otherwise
/// `epochs` is `fleet` itself and each execute step is one run_epoch up to
/// the next observable event — the only place the two drivers differ.
OnlineRunResult run_fleet_online(const table::Table& t,
                                 const table::FdSet& fds,
                                 const std::vector<Arrival>& arrivals,
                                 const OnlineConfig& config,
                                 ReplicaFleet& fleet, ThreadedFleet* epochs);

}  // namespace llmq::serve::detail
