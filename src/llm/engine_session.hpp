#pragma once
// Incremental stepping interface to the serving engine.
//
// ServingEngine::run() executes a batch job whose request list is fully
// known up front. Online serving (src/serve/) cannot use that shape:
// arrivals trickle in over simulated time and must interleave with
// execution. EngineSession exposes the same discrete-event mechanics as
// one admit/step/drain state machine:
//
//   * submit()      — queue a request for admission (any time);
//   * step()        — admit while memory and batch slots allow, spend the
//                     chunked-prefill token budget (if enabled), then run
//                     ONE decode step across decode-phase requests and
//                     retire completed ones;
//   * drain()       — step until everything submitted has finished;
//   * advance_to()  — move the clock forward across idle gaps between
//                     arrivals (only legal when nothing is in flight);
//   * preempt()/resume() — pause a running request (release its KV:
//                     unpin the cached prefix, drop the private
//                     uncached-suffix + generated blocks) and later
//                     re-queue it for admission.
//
// Prefill scheduling (EngineConfig::prefill_chunk_tokens):
//
//   * 0 (monolithic) — an admission advances the clock by its ENTIRE
//     uncached-prompt prefill before the next decode step; every running
//     request's next token stalls behind it. Bit-exactly the historical
//     behavior — the replay-determinism and equivalence suites pin it.
//   * > 0 (chunked continuous batching) — an admission reserves memory
//     and enters a Prefill phase instead; each step() spends a budget of
//     one chunk (prefill_chunk_tokens) walking prefill-phase requests in
//     strict effective-priority order (ties: admission order), so a
//     prompt whose last chunk is short leaves the rest to the next one,
//     then decodes one token for every decode-phase request. Completed
//     chunks admit() into the prefix cache at block-aligned boundaries,
//     so a half-prefilled long prompt is already reusable by followers,
//     and a preemption mid-prefill loses only the unadmitted tail.
//     Accounting stays exactly-once: prompt/cached counters book at
//     FIRST admission, and chunk tokens split by prompt position —
//     first-time positions book computed_prompt_tokens, re-covered
//     positions and generated-token replay book the recompute counters
//     (EngineMetrics::chunked_prefill_tokens is their union).
//
// Admission is strict-priority over PriorityClass (FIFO within a class,
// optionally aged — see EngineConfig), which reduces to plain FIFO when
// every request carries the default class. The pending set is kept as one
// seq-sorted FIFO deque per base class, so picking the next candidate is
// O(#classes) and admitting it pops a queue front — admission under a
// backlog of P requests is O(P), not the O(P^2) a linear-scan pick plus
// mid-deque erase would cost. With EngineConfig::preemption the admission
// loop preempts automatically: a blocked higher-class candidate evicts
// the lowest-effective-class running request and the victim re-queues
// itself (preempt + immediate resume). Resumed requests replay prefill
// through the prefix cache — recompute cost is the prompt suffix the
// cache no longer covers plus the tokens already generated — and every
// per-request and cache-stat counter stays exactly-once across arbitrary
// preempt/resume cycles (see EngineMetrics).
//
// ServingEngine::run() is implemented on top of this class, so the batch
// and online paths share one execution model; a whole-batch run is exactly
// "submit everything, then drain".

#include <array>
#include <deque>
#include <vector>

#include "llm/engine.hpp"
#include "obs/timeseries.hpp"
#include "obs/trace.hpp"

namespace llmq::llm {

class EngineSession {
 public:
  /// The cache must have been created compatible with the engine's block
  /// size (see ServingEngine::make_session_cache) and outlive the session.
  /// Throws if the model does not fit on the configured GPU.
  EngineSession(const ServingEngine& engine, cache::PrefixCache& cache);

  /// Queue a request for admission. Takes a copy: online requests are
  /// materialized from a stream, not a caller-owned batch vector.
  void submit(Request req);

  /// Admit queued requests (strict effective-priority order, FIFO within
  /// a class) while KV memory and batch slots allow. With monolithic
  /// prefill each admission advances the clock by its prefill time; with
  /// chunking an admission only reserves memory and enters the prefill
  /// phase (step() runs the chunks). With preemption enabled, a blocked
  /// candidate may evict strictly-lower-class running requests (which
  /// re-queue for resume). Returns the number admitted. Throws if a
  /// request cannot fit in KV memory even with an otherwise empty engine.
  std::size_t try_admit();

  /// Preempt the running request `id`: unpins its cached prefix path,
  /// drops its private (prompt-tail + generated) KV blocks, and parks it.
  /// Generated tokens are kept — resume replays them as prefill, it does
  /// not re-decode them. A victim preempted mid-prefill keeps the chunk
  /// progress already admitted into the cache (block-aligned) and loses
  /// only the unadmitted tail. Returns false when `id` is not running.
  /// Parked requests do NOT count as work (has_work/drain ignore them):
  /// whoever pauses owns calling resume().
  bool preempt(std::uint64_t id);

  /// Re-queue a parked request for admission. Its next admission runs
  /// prefill through the cache (recompute = uncached prompt suffix +
  /// generated tokens) and counts NO additional lookup stats. Returns
  /// false when `id` is not parked.
  bool resume(std::uint64_t id);

  struct StepEvents {
    std::size_t admitted = 0;
    std::size_t preempted = 0;  // auto-preemptions during this admission
    std::vector<RequestResult> completed;  // retired by this step
  };

  /// try_admit(), then (chunked mode) spend the prefill token budget, then
  /// one decode step across the decode-phase batch (one token per request)
  /// and retire completed requests. A step with nothing admitted and
  /// nothing running returns empty events and leaves the clock untouched.
  StepEvents step();

  /// Step until all submitted requests have completed; returns their
  /// results in completion order.
  std::vector<RequestResult> drain();

  bool has_work() const { return num_pending() > 0 || !running_.empty(); }
  std::size_t num_pending() const {
    std::size_t n = 0;
    for (const auto& q : pending_) n += q.size();
    return n;
  }
  std::size_t num_running() const { return running_.size(); }
  std::size_t num_parked() const { return parked_.size(); }

  /// Prompt tokens submitted but not yet finished (pending + running) —
  /// the load signal replica routers balance on.
  std::size_t outstanding_prompt_tokens() const {
    return outstanding_prompt_tokens_;
  }

  /// The session's cache, exposed read-only so a router can probe it with
  /// PrefixCache::peek() without being able to mutate LRU state.
  const cache::PrefixCache& cache() const { return cache_; }

  /// Simulated seconds since the session started.
  double now() const { return now_; }

  /// Idle-wait: advance the clock to `t` (no-op when `t` is in the past).
  /// Only legal when nothing is pending or in flight — time inside a batch
  /// advances exclusively through decode steps.
  void advance_to(double t);

  /// Aggregate metrics since the session started. Cache stats are the
  /// delta over the session (the caller's cache may have prior history).
  EngineMetrics metrics() const;

  /// Bind an event sink (obs/trace.hpp) under track id `replica`; also
  /// binds the session's cache (with this session's clock) so cache
  /// events land on the same track. nullptr disables emission — the
  /// default, and the only cost then is one branch per emission site.
  /// Emission never mutates session state: a traced run's results are
  /// bit-identical to an untraced run's (tests/obs pins this).
  void set_trace(obs::TraceSink* sink, std::uint32_t replica) {
    trace_ = sink;
    trace_replica_ = replica;
    cache_.set_trace(sink, replica, &now_);
  }

  /// Instantaneous gauge snapshot for time-series sampling (obs).
  obs::GaugeSample gauges() const;

 private:
  /// A queued request plus the state that must survive preempt/resume
  /// cycles. All carry-over fields are zero/initial on first submission.
  struct Pending {
    Request req;
    std::uint64_t seq = 0;       // submission order: FIFO tie-break forever
    double submit_time = 0.0;    // session clock at submit (aging base)
    bool resumed = false;        // re-queued by a preemption
    std::size_t generated = 0;   // tokens decoded before preemption
    std::size_t preemptions = 0;
    std::uint64_t recomputed_tokens = 0;
    std::size_t first_cached = 0;     // cached tokens at FIRST admission
    double first_admit_time = 0.0;    // FIRST admission (queue-delay base)
    double first_token_time = 0.0;    // 0 = no token emitted yet
    /// Furthest prompt position ever covered (initial cache hit + chunk
    /// progress) across admissions. Chunk work above this line is
    /// first-pass (books computed_prompt_tokens); at or below it — and
    /// any generated-token replay — is recompute. Keeps
    /// cached + computed == prompt exact across preempt/resume cycles
    /// under chunking.
    std::size_t max_prefilled = 0;
  };

  /// Execution phase of an admitted request. Monolithic admissions enter
  /// Decode directly (their prefill ran inside try_admit); chunked
  /// admissions start in Prefill and cross over once their chunk schedule
  /// completes. Only Decode-phase requests join decode steps.
  enum class Phase : std::uint8_t { Prefill, Decode };

  struct Running {
    Request req;
    cache::CacheLease lease;
    std::size_t cached = 0;      // prompt tokens served from cache (first)
    std::size_t generated = 0;
    std::size_t context_len = 0; // prompt + generated
    std::size_t private_blocks = 0;
    double admit_time = 0.0;     // first admission
    double first_token_time = 0.0;
    // Preempt/resume carry-over (mirrors Pending).
    std::uint64_t seq = 0;
    double submit_time = 0.0;
    std::uint64_t admit_seq = 0;  // admission order: preemption tie-break
    std::size_t preemptions = 0;
    std::uint64_t recomputed_tokens = 0;
    // Chunked-prefill phase state (Decode + zeros under monolithic mode).
    Phase phase = Phase::Decode;
    std::size_t prefill_done = 0;    // tokens chunk-prefilled this admission
    std::size_t prefill_target = 0;  // uncached suffix + replayed generated
    std::size_t prefill_cached = 0;  // cached context at THIS admission
    std::size_t max_prefilled = 0;   // first-pass line (mirrors Pending)
    std::size_t shared_reserved = 0; // planned shared blocks not yet admitted
  };

  /// Effective class under aging (EngineConfig::priority_aging_seconds).
  PriorityClass effective_class(PriorityClass base, double submit_time) const;
  /// Queue a Pending in its base-class FIFO (seq-sorted: fresh submissions
  /// append in O(1); re-queued victims carry an old seq and sorted-insert).
  void enqueue_pending(Pending p);
  /// Index into pending_ of the queue whose front is the next admission
  /// candidate: minimum (effective class, seq) over queue fronts. Within a
  /// seq-sorted same-base-class queue the front dominates (oldest seq AND
  /// most-aged), so comparing fronts finds the global minimum — the same
  /// pick a full linear scan makes, in O(#classes). kNumPriorityClasses
  /// when everything is empty.
  std::size_t pick_queue() const;
  /// The admission candidate's (queue, position). Without
  /// EngineConfig::spjf this is (pick_queue(), 0) — the front, exact
  /// FIFO. With spjf, the pick is the minimum (predicted_output_tokens,
  /// seq) over every pending request whose effective class equals the
  /// global best: within a seq-sorted base-class queue the effective
  /// class is non-increasing in urgency along the deque (older = more
  /// aged), so the equal-class candidates form a contiguous prefix and
  /// the scan stops at the first element of a worse effective class.
  /// queue == kNumPriorityClasses when everything is empty.
  struct PickedCandidate {
    std::size_t queue = kNumPriorityClasses;
    std::size_t pos = 0;
  };
  PickedCandidate pick_candidate() const;
  /// Preempt the running request at `idx` and return its re-queueable
  /// state (caller decides pending vs parked). `automatic` only tags the
  /// trace event (engine-initiated vs explicit preempt()).
  Pending preempt_at(std::size_t idx, bool automatic);
  /// Auto-preempt the worst running victim strictly below `cls` (ties:
  /// most recently admitted, to minimize lost decode work); the victim
  /// re-queues into pending. False when no such victim exists.
  bool preempt_below(PriorityClass cls);
  /// Chunked mode: spend this step's prefill token budget over
  /// prefill-phase requests in strict effective-priority order, ties by
  /// admission order (one chunk each) — an interactive arrival's chunks
  /// preempt the remainder of a batch prompt's chunk schedule.
  void run_prefill_chunks();
  /// Prefill complete: admit the full prompt, release the remaining
  /// shared-block reservation, enter the decode phase.
  void finish_prefill(Running& r);
  /// Re-derive `r`'s outstanding shared-block reservation from what its
  /// lease now covers (monotonically shrinking; engine-budget bookkeeping
  /// for blocks planned at admission but not yet admitted to the cache).
  void update_reservation(Running& r);

  const ServingEngine& engine_;
  cache::PrefixCache& cache_;
  cache::CacheStats stats_at_start_;
  /// Pending admissions, one seq-sorted FIFO per BASE class. Aging only
  /// ever promotes the longest-waiting (lowest-seq) element first, so the
  /// per-queue seq order is also effective-class order and pick_queue()
  /// needs only the fronts.
  std::array<std::deque<Pending>, kNumPriorityClasses> pending_;
  std::vector<Running> running_;
  std::vector<Pending> parked_;  // preempted via preempt(), awaiting resume()
  std::size_t private_in_use_ = 0;
  /// Shared blocks reserved by in-flight chunked prefills that their
  /// incremental admits have not yet moved into the cache. Counted against
  /// the KV pool so concurrent admissions cannot oversubscribe the
  /// headroom a prefilling prompt is still growing into. Always 0 under
  /// monolithic prefill (admission admits the full prompt immediately).
  std::size_t reserved_shared_ = 0;
  std::size_t outstanding_prompt_tokens_ = 0;
  std::uint64_t next_seq_ = 0;
  std::uint64_t next_admit_seq_ = 0;
  std::size_t last_step_preempted_ = 0;
  double now_ = 0.0;
  EngineMetrics metrics_;
  /// Per-step scratch (capacity reused across steps so the steady-state
  /// step loop allocates nothing): prefill ordering for the chunk budget
  /// and the decode-phase context-length batch.
  std::vector<std::size_t> prefill_order_;
  std::vector<std::size_t> decode_ctx_;

  /// One branch when tracing is off; no allocation either way.
  void trace(obs::EventKind kind, std::uint64_t id, std::uint64_t a,
             std::uint64_t b, std::uint64_t c, PriorityClass cls) const {
    if (!trace_) return;
    trace_->emit({kind, static_cast<std::uint8_t>(cls), trace_replica_,
                  now_, id, a, b, c});
  }
  obs::TraceSink* trace_ = nullptr;
  std::uint32_t trace_replica_ = 0;
};

}  // namespace llmq::llm
