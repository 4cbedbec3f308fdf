#pragma once
// Online serving driver: stream -> scheduler -> router -> engine replicas.
//
// run_online() is the event loop that turns the paper's batch pipeline
// into a serving scenario. It interleaves four components over simulated
// time:
//
//   1. arrivals whose timestamp has passed are fed to the scheduler;
//   2. due windows (row bound or wait deadline, see scheduler.hpp) are
//      planned, materialized into prompts — each tenant gets its own
//      instruction prefix, so cross-tenant prefix sharing is limited the
//      way separate customers' prompts are;
//   3. each request of a window is routed (router.hpp) to one of
//      n_replicas independent engine+cache replicas and submitted there;
//   4. replicas advance one decode step at a time; when everything is
//      idle the clock jumps to the next arrival or deadline.
//
// Replica clock merge rule: every replica runs its own virtual clock (its
// EngineSession's). The merged loop always steps the busy replica with the
// earliest clock, and the global clock tracks that execution frontier —
// min over busy replica clocks while any replica is busy, catching up to
// the furthest replica clock when all go idle. Work dispatched at global
// time t to a replica whose clock has already passed t queues at the
// replica clock: the same step-boundary quantization a single engine has.
// With n_replicas == 1 the merged loop reduces exactly — event for event —
// to the single-engine loop (the equivalence tests/router/ checks).
//
// The emitted schedule is also returned as a core::Ordering over the
// arrival-ordered table, so the online result can be compared head-to-head
// (order and exact PHC) against the offline planners — the equivalence
// property tests/serve/ checks, and the bridge between the paper's batch
// metric and the serving metrics reported here.

#include <array>
#include <string>
#include <vector>

#include "core/ordering.hpp"
#include "llm/engine.hpp"
#include "llm/task_model.hpp"
#include "obs/timeseries.hpp"
#include "obs/trace.hpp"
#include "query/prompt.hpp"
#include "serve/fleet.hpp"
#include "serve/latency.hpp"
#include "serve/router.hpp"
#include "serve/scheduler.hpp"
#include "serve/workload.hpp"

namespace llmq::serve {

/// The inherited FleetConfig is the replica fleet: `engine`, `model` and
/// `gpu` describe ONE replica (n_replicas multiplies the fleet's aggregate
/// KV memory; scale_kv_pool divides the per-replica pool to hold the
/// total fixed), and 1 replica is the classic single-engine path.
/// `router` assigns scheduled requests to replicas (router.hpp), and
/// `elasticity` sizes the fleet (fleet.hpp): n_replicas is then the
/// INITIAL active count, and enabling it routes even n_replicas == 1
/// runs through the replicated driver.
struct OnlineConfig : FleetConfig {
  SchedulerOptions scheduler;
  /// Output-length channel (same deterministic model the batch executor
  /// uses); only output_tokens() is consulted here.
  llm::ModelProfile model_profile = llm::profile_llama3_8b();
  /// Base prompt; tenant t serves with system_prompt + " [tenant t]".
  query::PromptTemplate prompt;
  double avg_output_tokens = 8.0;
  /// Per-class decode-length multiplier over avg_output_tokens, indexed
  /// by PriorityClass: interactive rows are typically short completions,
  /// batch analytics generations long ones. All-ones = one shared output
  /// model (the classic stream).
  std::array<double, llm::kNumPriorityClasses> class_output_multiplier = {
      1.0, 1.0, 1.0};
  /// Per-tenant decode-length multiplier over avg_output_tokens: tenant t
  /// uses tenant_output_multiplier[t % size()]. Empty = all 1.0 (the
  /// classic stream). Composes multiplicatively with
  /// class_output_multiplier — this is the knob that gives tenants of ONE
  /// class genuinely different output lengths, which is what makes
  /// length-aware (SPJF) scheduling measurable.
  std::vector<double> tenant_output_multiplier;
  /// TTFT SLO for goodput accounting; 0 = none.
  double ttft_slo_seconds = 0.0;

  /// Session workload (multi-turn chat / agentic loops, workload.hpp).
  /// Null = classic one-shot stream. When set, the `arrivals` passed to a
  /// driver MUST be sessions->roots (validated); follow-up turns
  /// materialize as feedback arrivals when their parent completes, with
  /// arrival time = parent finish + the planned gap, and ids allocated
  /// past the roots in completion order — a pure function of the run, so
  /// every driver (virtual-clock, replicated, threaded) spawns the exact
  /// same stream.
  const SessionWorkload* sessions = nullptr;

  /// Output-length predictor (serve/length_predictor.hpp). Each driver
  /// builds one predictor per run, observes every completion in oracle
  /// order, and stamps Request::predicted_output_tokens at dispatch.
  /// Pair with engine.spjf and/or scheduler.spjf to act on the
  /// predictions; with both off the predictor only adds bookkeeping.
  LengthPredictorOptions predictor;

  /// Observability: optional event sink + time-series sampler threaded
  /// through every component the run constructs (sessions, caches,
  /// scheduler, fleet). Default-null = tracing off at one-branch cost.
  obs::TraceConfig trace;

  /// The replica-fleet slice of this configuration — what ReplicaFleet
  /// and the query-serving client consume.
  const FleetConfig& fleet() const { return *this; }
};

// ReplicaMetrics (one replica's slice of a replicated run) lives in
// serve/fleet.hpp with the extracted replica-fleet core.

/// One query's (lane's) slice of a shared-fleet run — the attribution a
/// multi-tenant serving endpoint bills by. Engine-visible token counters
/// cover only requests the fleet actually executed; completions served
/// from the exact-duplicate memo are counted in the dedup_* fields
/// instead, so summing a lane's engine-visible counters over all lanes
/// reproduces the fleet aggregate exactly (a tests/serve/ property).
struct QueryLaneMetrics {
  std::string label;
  /// Scheduling class this lane's invocations are served under.
  llm::PriorityClass priority = llm::PriorityClass::Standard;
  std::size_t requests = 0;         // completions delivered to this query
  std::size_t engine_requests = 0;  // executed on a replica (not memo-served)
  std::uint64_t prompt_tokens = 0;         // engine-visible
  std::uint64_t cached_prompt_tokens = 0;  // engine-visible prefix hits
  std::uint64_t output_tokens = 0;         // engine-visible
  std::size_t dedup_hits = 0;              // completions fanned out from memo
  std::uint64_t dedup_saved_prompt_tokens = 0;
  LatencySummary latency;  // over this query's completions

  double hit_rate() const {
    return prompt_tokens ? static_cast<double>(cached_prompt_tokens) /
                               static_cast<double>(prompt_tokens)
                         : 0.0;
  }
};

/// Exact-duplicate memo accounting (paper §dedup): identical
/// (prompt, output-length) invocations are executed once and fanned out.
/// Kept strictly separate from prefix-hit accounting — a memo hit never
/// touches a replica cache, so it inflates neither PHR numerator nor
/// denominator.
struct DedupStats {
  std::size_t leaders = 0;  // unique invocations executed on the fleet
  std::size_t hits = 0;     // completions served by fan-out from a leader
  std::uint64_t saved_prompt_tokens = 0;  // prompt tokens never prefilled
  std::uint64_t saved_output_tokens = 0;  // output tokens never decoded
};

struct OnlineRunResult {
  std::vector<ServedRequest> requests;  // completion order
  LatencySummary latency;
  /// Aggregate over all replicas: token/time counters summed,
  /// total_seconds and peak_batch_size maxed. For n_replicas == 1 this is
  /// exactly the one engine's metrics (includes prompt_cache_hit_rate(),
  /// which aggregates to fleet-wide hit tokens / prompt tokens).
  llm::EngineMetrics engine;
  std::size_t windows = 0;
  double solve_seconds = 0.0;           // planner wall-clock across windows
  /// Emission order as an Ordering over the arrival-ordered table
  /// (t.take_rows of the arrivals' rows in arrival order); empty stream =
  /// empty ordering. Emission = dispatch order, which for a replicated run
  /// is the order requests left the scheduler, not per-replica order.
  core::Ordering emitted;
  /// Exact PHC of `emitted` under the scheduler's length measure.
  double phc = 0.0;
  /// Completed requests per tenant id.
  std::vector<std::size_t> per_tenant;

  /// Per-replica breakdown; size == n_replicas (size 1 for the single
  /// path; the elasticity ceiling when elastic scaling is enabled —
  /// replicas that never activated report all-zero slices).
  std::vector<ReplicaMetrics> replicas;
  /// Per-priority-class breakdown (always kNumPriorityClasses entries in
  /// class order) — the headline view for preemptive scheduling: did
  /// interactive TTFT hold under overload, and what did batch pay for it
  /// (preemptions, recompute, degraded latency)?
  std::vector<PriorityClassMetrics> per_class;
  /// Per-query attribution — filled by the query-serving client
  /// (query_client.hpp); empty for arrival-stream runs, whose unit of
  /// attribution is the tenant (per_tenant above).
  std::vector<QueryLaneMetrics> per_query;
  /// Exact-duplicate memo accounting; all zeros when dedup is off or the
  /// run had no duplicate invocations.
  DedupStats dedup;

  /// Prompt tokens the fleet did not have to prefill, as a fraction of
  /// all prompt tokens submitted: prefix hits + memo fan-outs. Equals
  /// the engine PHR when nothing deduped — the two ledgers compose
  /// additively because memo hits never touch cache stats. This is the
  /// headline metric bench_concurrent_queries reports and the
  /// concurrent-beats-serial acceptance test pins.
  double effective_hit_fraction() const {
    const double saved = static_cast<double>(engine.cached_prompt_tokens +
                                             dedup.saved_prompt_tokens);
    const double total = static_cast<double>(engine.prompt_tokens +
                                             dedup.saved_prompt_tokens);
    return total > 0.0 ? saved / total : 0.0;
  }
  /// Load imbalance: mean over routing decisions of
  /// max_r(outstanding prompt tokens) / mean_r(outstanding prompt tokens).
  /// 1.0 = perfectly balanced at every decision; n_replicas = one replica
  /// took everything. 1.0 when there were no decisions (empty stream).
  double load_imbalance = 1.0;
};

/// Serve `arrivals` (sorted by time, unique ids) drawn from rows of `t`.
/// Dispatches to the single-engine loop when n_replicas == 1 and to the
/// replicated loop otherwise. Throws std::invalid_argument for
/// n_replicas == 0.
OnlineRunResult run_online(const table::Table& t, const table::FdSet& fds,
                           const std::vector<Arrival>& arrivals,
                           const OnlineConfig& config);

/// The replicated driver itself, callable for any n_replicas >= 1. At
/// n_replicas == 1 it is equivalent to the single-engine run_online —
/// same emitted ordering, PHC, hit rate, and timings (the property
/// tests/router/ pins this down); run_online keeps the dedicated single
/// path so that equivalence stays a checkable claim rather than a
/// tautology.
OnlineRunResult run_online_replicated(const table::Table& t,
                                      const table::FdSet& fds,
                                      const std::vector<Arrival>& arrivals,
                                      const OnlineConfig& config);

}  // namespace llmq::serve
