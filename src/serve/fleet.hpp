#pragma once
// Replica fleet: N independent engine+cache replicas behind one router,
// stepped on a merged virtual clock.
//
// The one replicated execution core behind every fleet driver:
//
//   * the online event loop (online.cpp) — scheduler windows dispatch
//     requests into the fleet; the virtual-clock driver steps it one
//     replica step at a time, the threaded runtime (threaded_fleet.hpp) is
//     this same class plus a worker pool that steps replicas in parallel
//     between dispatches — each replica (engine, session, lock-free
//     cache) on one thread at a time;
//   * the query-serving client (query_client.hpp): concurrent relational
//     queries submit their per-row invocations into the same fleet.
//
// The fleet owns routing, per-replica submission, the merged-clock frontier
// rule, per-replica attribution counters, elasticity (watermark-driven
// scale-up/down with warm-spawn prefix migration — see ElasticityConfig),
// and the outstanding-load imbalance sampling; drivers own arrival
// semantics (what to dispatch when) and completion bookkeeping. The
// clock-merge rule is documented in online.hpp and DESIGN.md §3.1 — the
// n_replicas == 1 bit-exact equivalence test in tests/router/ pins it.

#include <cstdint>
#include <memory>
#include <vector>

#include "llm/engine.hpp"
#include "llm/engine_session.hpp"
#include "serve/router.hpp"

namespace llmq::serve {

/// Elastic fleet sizing (DESIGN.md §13): the fleet pre-constructs
/// `max_replicas` replicas but only the first n_replicas start active.
/// Load watermarks — mean outstanding prompt tokens per serving replica,
/// evaluated at every dispatch — drive scale decisions:
///
///   * mean > high watermark: activate the lowest-index parked replica.
///     With migrate_max_blocks > 0 the spawn is WARM: the most-loaded
///     serving peer donates its hottest root-down prefixes
///     (PrefixCache::begin_migration), the transfer is priced like a
///     host-tier link (CostModel::promote_seconds), and only when it
///     lands does the recipient admit the prefixes (admit_migrated) and
///     the donor release its transfer pins (end_migration) — so donor
///     eviction of in-flight blocks is deferred and nothing is
///     double-counted as a prefix hit.
///   * mean < low watermark (and more than min_replicas serving): the
///     highest-index serving replica starts DRAINING — it finishes its
///     in-flight work but every router policy steers new requests around
///     it; once idle it parks (leaves the active set, cache kept warm).
///
/// All decisions happen at dispatch points as a pure function of fleet
/// state and the merged clock; the threaded runtime runs this same code on
/// its driver thread, so both drivers scale bit-identically. Disabled (the
/// default) leaves every code path byte-for-byte the fixed-size fleet.
struct ElasticityConfig {
  bool enabled = false;
  /// Scale-down floor: never drain below this many serving replicas.
  std::size_t min_replicas = 1;
  /// Replica ceiling (pre-constructed); 0 = n_replicas (no headroom).
  std::size_t max_replicas = 0;
  /// Scale up when mean outstanding prompt tokens per serving replica
  /// exceeds this. 0 disables scale-up.
  std::size_t high_watermark_tokens = 0;
  /// Scale down when the mean falls below this. 0 disables scale-down.
  std::size_t low_watermark_tokens = 0;
  /// Hot-prefix budget migrated into a newly activated replica from the
  /// most-loaded peer. 0 = cold spawns.
  std::size_t migrate_max_blocks = 0;
  /// Minimum virtual seconds between scale decisions (completed
  /// migrations and drain-parking are not decisions and never wait).
  double cooldown_seconds = 0.0;

  /// Total replicas a fleet constructs for `n_replicas` initial actives.
  std::size_t ceiling(std::size_t n_replicas) const {
    const std::size_t cap = max_replicas ? max_replicas : n_replicas;
    return cap > n_replicas ? cap : n_replicas;
  }
};

/// One replica's configuration is `engine` + `model` + `gpu`; n_replicas
/// scales the fleet (use scale_kv_pool to divide a fixed total budget).
struct FleetConfig {
  llm::EngineConfig engine;
  llm::ModelSpec model = llm::llama3_8b();
  llm::GpuSpec gpu = llm::l4();
  std::size_t n_replicas = 1;
  RouterPolicy router = RouterPolicy::PrefixAffinity;
  ElasticityConfig elasticity;

  /// Shrink each replica's KV pool to `fraction` of the GPU-derived
  /// capacity (same scaling contract as query::ExecConfig::scale_kv_pool).
  void scale_kv_pool(double fraction);
};

/// One replica's slice of a fleet run.
struct ReplicaMetrics {
  std::size_t requests = 0;                // requests routed here
  std::uint64_t routed_prompt_tokens = 0;  // prompt tokens routed here
  llm::EngineMetrics engine;               // this replica's engine + cache

  double hit_rate() const { return engine.prompt_cache_hit_rate(); }
};

/// Fleet-wide engine metrics: token/time counters sum across replicas;
/// total_seconds and peak_batch_size are maxima (replicas run in
/// parallel). For one replica this is that replica's metrics unchanged.
llm::EngineMetrics aggregate_replica_engines(
    const std::vector<ReplicaMetrics>& replicas);

class ReplicaFleet {
 public:
  /// Throws std::invalid_argument when config.n_replicas == 0.
  explicit ReplicaFleet(const FleetConfig& config);

  std::size_t n_replicas() const { return replicas_.size(); }

  /// Route `req` and submit it to the chosen replica: builds the router's
  /// read-only views, brings an idle target's clock to `now` (admission
  /// cannot happen in the past), submits, and samples the
  /// outstanding-load imbalance. Returns the chosen replica.
  std::size_t dispatch(llm::Request req, std::uint32_t tenant, double now);

  bool any_work() const;

  /// Busy replica with the earliest clock; n_replicas() when all idle.
  std::size_t earliest_busy() const;

  /// Merged-clock frontier rule applied to a driver clock `now`: the
  /// earliest busy replica clock while anything runs, the furthest
  /// replica clock when all are idle; never moves `now` backwards.
  double frontier(double now) const;

  struct StepResult {
    std::size_t replica = 0;
    /// Automatic priority preemptions this step performed (victims are
    /// re-queued inside the replica session — they surface again through
    /// `completed` when they eventually finish).
    std::size_t preempted = 0;
    std::vector<llm::RequestResult> completed;
  };
  /// Step the busy replica with the earliest clock (one admission round +
  /// one decode step). Precondition: any_work().
  StepResult step();

  /// Per-replica attribution with each replica's final engine metrics.
  std::vector<ReplicaMetrics> replica_metrics() const;

  /// Mean over routing decisions of max/mean outstanding prompt tokens
  /// (1.0 = perfectly balanced at every decision; 1.0 when no decisions).
  double load_imbalance() const;

  /// Read-only replica session access (clock and cache probes in tests).
  const llm::EngineSession& session(std::size_t r) const {
    return replicas_[r]->session;
  }

  /// Elasticity observer (constant under a disabled ElasticityConfig:
  /// every replica active).
  std::size_t active_replicas() const;

  /// Bind an event sink: each replica session (and its cache) emits on
  /// track r; dispatch() additionally emits a RouteDecision per request
  /// on the global track (the merged driver clock can be ahead of a busy
  /// replica's clock, so routing events must not claim a replica track).
  void set_trace(obs::TraceSink* sink);

  /// Append one gauge row per replica at merged time `now` (time-series
  /// sampling; see obs/timeseries.hpp).
  void sample_gauges(obs::TimeSeries& ts, double now) const;

 protected:
  /// Mutable replica session: the threaded runtime's workers step it
  /// inside an epoch, while the driver is parked on the barrier.
  llm::EngineSession& replica_session(std::size_t r) {
    return replicas_[r]->session;
  }
  /// The sink bound by set_trace (null when untraced).
  obs::TraceSink* trace() const { return trace_; }

 private:
  struct Replica {
    llm::ServingEngine engine;
    cache::PrefixCache cache;
    llm::EngineSession session;

    explicit Replica(const FleetConfig& config)
        : engine(llm::CostModel(config.model, config.gpu), config.engine),
          cache(engine.make_session_cache()),
          session(engine, cache) {}
  };

  /// One in-flight warm-spawn transfer: the donor's batch (its leases pin
  /// the donor blocks until the transfer lands) and the virtual landing
  /// time, priced over the inter-replica link.
  struct PendingMigration {
    std::size_t donor = 0;
    std::size_t recipient = 0;
    cache::PrefixCache::MigrationBatch batch;
    double land_time = 0.0;
  };

  /// Dispatch-point elasticity hook: lands due migrations, parks idle
  /// draining replicas, then applies at most one watermark decision.
  void maybe_scale(double now);
  void complete_migrations(double now);

  std::vector<std::unique_ptr<Replica>> replicas_;
  Router router_;
  obs::TraceSink* trace_ = nullptr;
  std::vector<ReplicaMetrics> counters_;  // engine filled by replica_metrics
  std::vector<Router::ReplicaView> views_;  // reused per-dispatch buffer
  ElasticityConfig elastic_;
  std::size_t block_size_ = 16;
  std::vector<char> active_;
  std::vector<char> draining_;
  std::vector<PendingMigration> pending_;
  double last_scale_ = -1.0e300;  // cooldown anchor
  double imbalance_sum_ = 0.0;
  std::size_t imbalance_samples_ = 0;
};

}  // namespace llmq::serve
