// The threaded-runtime determinism property: run_online_threaded produces
// a bit-identical OnlineRunResult to the single-threaded virtual-clock
// oracle across replicas x preemption x chunking x seeds — every request
// field, latency/per-class summary, engine + cache ledger, the emitted
// ordering, PHC, and load imbalance. solve_seconds is planner wall clock
// and the one field excluded from comparison.
//
// Trace byte-identity and gauge time-series equality are pinned against
// run_online_replicated: the n == 1 run_online takes the session path,
// which (by design) emits no RouteDecision events, while the threaded
// runtime always routes — replicated(1) == run_online(1) is already
// pinned in tests/router.

#include "serve/threaded_fleet.hpp"

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "obs/timeseries.hpp"
#include "obs/trace.hpp"
#include "serve/online.hpp"
#include "util/rng.hpp"

namespace llmq::serve {
namespace {

using table::Schema;
using table::Table;

Table groupy_table(util::Rng& rng, std::size_t n, std::size_t m,
                   int alphabet) {
  std::vector<std::string> names;
  for (std::size_t c = 0; c < m; ++c) names.push_back("f" + std::to_string(c));
  Table t(Schema::of_names(names));
  for (std::size_t r = 0; r < n; ++r) {
    std::vector<std::string> row;
    for (std::size_t c = 0; c < m; ++c)
      row.push_back("value_" + std::string(1, static_cast<char>(
                                                  'a' + rng.next_below(
                                                            alphabet))));
    t.append_row(std::move(row));
  }
  return t;
}

OnlineConfig small_config() {
  OnlineConfig cfg;
  cfg.prompt.system_prompt = "You are a data analyst.";
  cfg.prompt.user_prompt = "Classify the row.";
  cfg.avg_output_tokens = 2.0;
  cfg.scheduler.ggr.measure = core::LengthMeasure::Unit;
  cfg.engine.kv_pool_blocks_override = 2048;  // ample, deterministic
  return cfg;
}

std::vector<Arrival> stream_over(std::size_t n, double rate,
                                 std::uint64_t seed,
                                 std::size_t n_tenants = 1,
                                 bool classed = false) {
  WorkloadOptions w;
  w.arrival_rate = rate;
  w.seed = seed;
  w.n_tenants = n_tenants;
  if (classed)
    w.tenant_classes = {llm::PriorityClass::Interactive,
                        llm::PriorityClass::Standard,
                        llm::PriorityClass::Batch};
  return generate_arrivals(n, w);
}

// ---- Field-wise equality helpers (exact; no tolerances). ----

void expect_cache_eq(const cache::CacheStats& a, const cache::CacheStats& b,
                     const std::string& where) {
  SCOPED_TRACE(where);
  EXPECT_EQ(a.lookups, b.lookups);
  EXPECT_EQ(a.hit_tokens, b.hit_tokens);
  EXPECT_EQ(a.lookup_tokens, b.lookup_tokens);
  EXPECT_EQ(a.inserted_blocks, b.inserted_blocks);
  EXPECT_EQ(a.evicted_blocks, b.evicted_blocks);
}

void expect_engine_eq(const llm::EngineMetrics& a, const llm::EngineMetrics& b,
                      const std::string& where) {
  SCOPED_TRACE(where);
  EXPECT_DOUBLE_EQ(a.total_seconds, b.total_seconds);
  EXPECT_DOUBLE_EQ(a.prefill_seconds, b.prefill_seconds);
  EXPECT_DOUBLE_EQ(a.decode_seconds, b.decode_seconds);
  EXPECT_EQ(a.prompt_tokens, b.prompt_tokens);
  EXPECT_EQ(a.cached_prompt_tokens, b.cached_prompt_tokens);
  EXPECT_EQ(a.computed_prompt_tokens, b.computed_prompt_tokens);
  EXPECT_EQ(a.output_tokens, b.output_tokens);
  EXPECT_EQ(a.decode_steps, b.decode_steps);
  EXPECT_DOUBLE_EQ(a.sum_batch_size, b.sum_batch_size);
  EXPECT_EQ(a.peak_batch_size, b.peak_batch_size);
  EXPECT_EQ(a.preemptions, b.preemptions);
  EXPECT_EQ(a.recompute_prefill_tokens, b.recompute_prefill_tokens);
  EXPECT_DOUBLE_EQ(a.recompute_prefill_seconds, b.recompute_prefill_seconds);
  EXPECT_EQ(a.prefill_chunks, b.prefill_chunks);
  EXPECT_EQ(a.chunked_prefill_tokens, b.chunked_prefill_tokens);
  EXPECT_DOUBLE_EQ(a.max_decode_stall_seconds, b.max_decode_stall_seconds);
  expect_cache_eq(a.cache, b.cache, "cache");
}

void expect_latency_eq(const LatencySummary& a, const LatencySummary& b,
                       const std::string& where) {
  SCOPED_TRACE(where);
  EXPECT_EQ(a.count, b.count);
  EXPECT_DOUBLE_EQ(a.mean_ttft, b.mean_ttft);
  EXPECT_DOUBLE_EQ(a.p50_ttft, b.p50_ttft);
  EXPECT_DOUBLE_EQ(a.p90_ttft, b.p90_ttft);
  EXPECT_DOUBLE_EQ(a.p95_ttft, b.p95_ttft);
  EXPECT_DOUBLE_EQ(a.p99_ttft, b.p99_ttft);
  EXPECT_DOUBLE_EQ(a.mean_queue_delay, b.mean_queue_delay);
  EXPECT_DOUBLE_EQ(a.p90_queue_delay, b.p90_queue_delay);
  EXPECT_DOUBLE_EQ(a.p99_queue_delay, b.p99_queue_delay);
  EXPECT_DOUBLE_EQ(a.mean_itl, b.mean_itl);
  EXPECT_DOUBLE_EQ(a.p50_itl, b.p50_itl);
  EXPECT_DOUBLE_EQ(a.p90_itl, b.p90_itl);
  EXPECT_DOUBLE_EQ(a.p99_itl, b.p99_itl);
  EXPECT_DOUBLE_EQ(a.p50_e2e, b.p50_e2e);
  EXPECT_DOUBLE_EQ(a.p99_e2e, b.p99_e2e);
  EXPECT_DOUBLE_EQ(a.makespan, b.makespan);
  EXPECT_DOUBLE_EQ(a.throughput_rps, b.throughput_rps);
  EXPECT_DOUBLE_EQ(a.goodput_rps, b.goodput_rps);
  EXPECT_DOUBLE_EQ(a.ttft_slo, b.ttft_slo);
}

void expect_requests_eq(const std::vector<ServedRequest>& a,
                        const std::vector<ServedRequest>& b) {
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t i = 0; i < a.size(); ++i) {
    SCOPED_TRACE("request " + std::to_string(i));
    EXPECT_EQ(a[i].id, b[i].id);
    EXPECT_EQ(a[i].tenant, b[i].tenant);
    EXPECT_EQ(a[i].row, b[i].row);
    EXPECT_EQ(a[i].replica, b[i].replica);
    EXPECT_DOUBLE_EQ(a[i].arrival_time, b[i].arrival_time);
    EXPECT_DOUBLE_EQ(a[i].dispatch_time, b[i].dispatch_time);
    EXPECT_DOUBLE_EQ(a[i].admit_time, b[i].admit_time);
    EXPECT_DOUBLE_EQ(a[i].first_token_time, b[i].first_token_time);
    EXPECT_DOUBLE_EQ(a[i].finish_time, b[i].finish_time);
    EXPECT_EQ(a[i].prompt_tokens, b[i].prompt_tokens);
    EXPECT_EQ(a[i].cached_tokens, b[i].cached_tokens);
    EXPECT_EQ(a[i].output_tokens, b[i].output_tokens);
    EXPECT_EQ(a[i].deduped, b[i].deduped);
    EXPECT_EQ(a[i].priority, b[i].priority);
    EXPECT_EQ(a[i].preemptions, b[i].preemptions);
    EXPECT_EQ(a[i].recomputed_tokens, b[i].recomputed_tokens);
    EXPECT_EQ(a[i].session, b[i].session);
    EXPECT_EQ(a[i].turn, b[i].turn);
  }
}

void expect_ordering_eq(const core::Ordering& a, const core::Ordering& b) {
  ASSERT_EQ(a.num_rows(), b.num_rows());
  for (std::size_t i = 0; i < a.num_rows(); ++i) {
    SCOPED_TRACE("emitted position " + std::to_string(i));
    EXPECT_EQ(a.row_at(i), b.row_at(i));
    EXPECT_EQ(a.fields_at(i), b.fields_at(i));
  }
}

/// Everything except solve_seconds (planner wall clock).
void expect_result_eq(const OnlineRunResult& a, const OnlineRunResult& b) {
  expect_requests_eq(a.requests, b.requests);
  expect_latency_eq(a.latency, b.latency, "aggregate latency");
  expect_engine_eq(a.engine, b.engine, "aggregate engine");
  EXPECT_EQ(a.windows, b.windows);
  expect_ordering_eq(a.emitted, b.emitted);
  EXPECT_DOUBLE_EQ(a.phc, b.phc);
  EXPECT_EQ(a.per_tenant, b.per_tenant);
  ASSERT_EQ(a.replicas.size(), b.replicas.size());
  for (std::size_t r = 0; r < a.replicas.size(); ++r) {
    SCOPED_TRACE("replica " + std::to_string(r));
    EXPECT_EQ(a.replicas[r].requests, b.replicas[r].requests);
    EXPECT_EQ(a.replicas[r].routed_prompt_tokens,
              b.replicas[r].routed_prompt_tokens);
    expect_engine_eq(a.replicas[r].engine, b.replicas[r].engine,
                     "replica engine");
  }
  ASSERT_EQ(a.per_class.size(), b.per_class.size());
  for (std::size_t c = 0; c < a.per_class.size(); ++c) {
    SCOPED_TRACE("class " + std::to_string(c));
    EXPECT_EQ(a.per_class[c].priority, b.per_class[c].priority);
    EXPECT_EQ(a.per_class[c].requests, b.per_class[c].requests);
    EXPECT_EQ(a.per_class[c].preemptions, b.per_class[c].preemptions);
    EXPECT_EQ(a.per_class[c].recomputed_tokens,
              b.per_class[c].recomputed_tokens);
    expect_latency_eq(a.per_class[c].latency, b.per_class[c].latency,
                      "class latency");
  }
  EXPECT_EQ(a.per_query.size(), b.per_query.size());
  EXPECT_EQ(a.dedup.leaders, b.dedup.leaders);
  EXPECT_EQ(a.dedup.hits, b.dedup.hits);
  EXPECT_EQ(a.dedup.saved_prompt_tokens, b.dedup.saved_prompt_tokens);
  EXPECT_EQ(a.dedup.saved_output_tokens, b.dedup.saved_output_tokens);
  EXPECT_DOUBLE_EQ(a.load_imbalance, b.load_imbalance);
}

void expect_trace_eq(const obs::TraceLog& a, const obs::TraceLog& b) {
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t i = 0; i < a.size(); ++i) {
    SCOPED_TRACE("trace event " + std::to_string(i));
    EXPECT_EQ(a.events()[i].kind, b.events()[i].kind);
    EXPECT_EQ(a.events()[i].cls, b.events()[i].cls);
    EXPECT_EQ(a.events()[i].replica, b.events()[i].replica);
    EXPECT_DOUBLE_EQ(a.events()[i].time, b.events()[i].time);
    EXPECT_EQ(a.events()[i].id, b.events()[i].id);
    EXPECT_EQ(a.events()[i].a, b.events()[i].a);
    EXPECT_EQ(a.events()[i].b, b.events()[i].b);
    EXPECT_EQ(a.events()[i].c, b.events()[i].c);
  }
}

void expect_timeseries_eq(const obs::TimeSeries& a, const obs::TimeSeries& b) {
  EXPECT_EQ(a.time, b.time);
  EXPECT_EQ(a.replica, b.replica);
  EXPECT_EQ(a.kv_resident_blocks, b.kv_resident_blocks);
  EXPECT_EQ(a.kv_private_blocks, b.kv_private_blocks);
  EXPECT_EQ(a.kv_reserved_blocks, b.kv_reserved_blocks);
  EXPECT_EQ(a.kv_pinned_blocks, b.kv_pinned_blocks);
  EXPECT_EQ(a.pending_interactive, b.pending_interactive);
  EXPECT_EQ(a.pending_standard, b.pending_standard);
  EXPECT_EQ(a.pending_batch, b.pending_batch);
  EXPECT_EQ(a.running_prefill, b.running_prefill);
  EXPECT_EQ(a.running_decode, b.running_decode);
  EXPECT_EQ(a.parked, b.parked);
  EXPECT_EQ(a.outstanding_prompt_tokens, b.outstanding_prompt_tokens);
  EXPECT_EQ(a.rolling_phr, b.rolling_phr);
}

// ---- The determinism property. ----

struct MatrixCase {
  std::size_t replicas;
  bool preemption;
  std::size_t chunk;
  std::uint64_t seed;
};

// replicas {1,2,4,8} x preemption {off,on} x chunk {0,64}, a distinct
// seed per cell — 16 seeded configurations (>= the 12 the acceptance
// criterion asks for), each exercising multi-tenant, multi-class traffic
// with a pool tight enough to evict (and preempt when enabled).
std::vector<MatrixCase> property_matrix() {
  std::vector<MatrixCase> cases;
  std::uint64_t seed = 101;
  for (std::size_t replicas : {1u, 2u, 4u, 8u})
    for (bool preemption : {false, true})
      for (std::size_t chunk : {0u, 64u})
        cases.push_back({replicas, preemption, chunk, seed++});
  return cases;
}

OnlineConfig matrix_config(const MatrixCase& mc) {
  OnlineConfig cfg = small_config();
  cfg.n_replicas = mc.replicas;
  cfg.router = RouterPolicy::PrefixAffinity;
  cfg.scheduler.window_rows = 8;
  cfg.scheduler.max_wait_seconds = 0.15;
  cfg.ttft_slo_seconds = 0.25;
  cfg.engine.preemption = mc.preemption;
  cfg.engine.prefill_chunk_tokens = mc.chunk;
  // Tight pool per replica: forces LRU eviction, and preemption when on.
  cfg.engine.kv_pool_blocks_override = mc.preemption ? 96 : 256;
  if (mc.preemption) cfg.engine.priority_aging_seconds = 1.0;
  return cfg;
}

TEST(ThreadedFleetProperty, BitIdenticalToVirtualClockAcrossMatrix) {
  util::Rng rng(7);
  const Table t = groupy_table(rng, 64, 3, 3);
  const table::FdSet fds;
  std::uint64_t preemptions_seen = 0;
  std::uint64_t chunks_seen = 0;
  for (const MatrixCase& mc : property_matrix()) {
    SCOPED_TRACE("replicas=" + std::to_string(mc.replicas) +
                 " preemption=" + std::to_string(mc.preemption) +
                 " chunk=" + std::to_string(mc.chunk) +
                 " seed=" + std::to_string(mc.seed));
    const OnlineConfig cfg = matrix_config(mc);
    const auto arrivals = stream_over(64, 40.0, mc.seed, 6, true);
    const OnlineRunResult oracle = run_online(t, fds, arrivals, cfg);
    const OnlineRunResult threaded =
        run_online_threaded(t, fds, arrivals, cfg);
    expect_result_eq(oracle, threaded);
    ASSERT_EQ(oracle.requests.size(), arrivals.size());
    if (mc.preemption) preemptions_seen += oracle.engine.preemptions;
    if (mc.chunk > 0) chunks_seen += oracle.engine.prefill_chunks;
  }
  // The matrix must actually exercise the machinery it claims to pin
  // (high replica counts legitimately spread load below the preemption
  // threshold; the tight 1-2 replica cells must trigger it).
  EXPECT_GT(preemptions_seen, 0u);
  EXPECT_GT(chunks_seen, 0u);
}

TEST(ThreadedFleetProperty, TraceBytesIdenticalToReplicatedOracle) {
  util::Rng rng(5);
  const Table t = groupy_table(rng, 60, 3, 3);
  const table::FdSet fds;
  for (std::size_t replicas : {1u, 2u, 4u}) {
    SCOPED_TRACE("replicas=" + std::to_string(replicas));
    OnlineConfig cfg = small_config();
    cfg.n_replicas = replicas;
    cfg.router = RouterPolicy::PrefixAffinity;
    cfg.scheduler.window_rows = 8;
    cfg.scheduler.max_wait_seconds = 0.12;
    cfg.engine.preemption = true;
    cfg.engine.kv_pool_blocks_override = 128;
    const auto arrivals = stream_over(60, 45.0, 33, 5, true);

    obs::TraceLog oracle_log;
    OnlineConfig oracle_cfg = cfg;
    oracle_cfg.trace.sink = &oracle_log;
    const auto oracle = run_online_replicated(t, fds, arrivals, oracle_cfg);

    obs::TraceLog threaded_log;
    OnlineConfig threaded_cfg = cfg;
    threaded_cfg.trace.sink = &threaded_log;
    const auto threaded = run_online_threaded(t, fds, arrivals, threaded_cfg);

    ASSERT_GT(oracle_log.size(), 0u);
    expect_trace_eq(oracle_log, threaded_log);
    expect_requests_eq(oracle.requests, threaded.requests);
  }
}

TEST(ThreadedFleetProperty, TimeSeriesIdenticalToReplicatedOracle) {
  util::Rng rng(13);
  const Table t = groupy_table(rng, 60, 3, 3);
  const table::FdSet fds;
  for (std::size_t replicas : {1u, 3u}) {
    SCOPED_TRACE("replicas=" + std::to_string(replicas));
    OnlineConfig cfg = small_config();
    cfg.n_replicas = replicas;
    cfg.scheduler.window_rows = 8;
    cfg.scheduler.max_wait_seconds = 0.1;
    const auto arrivals = stream_over(60, 30.0, 21, 3);

    obs::TimeSeries oracle_ts;
    OnlineConfig oracle_cfg = cfg;
    oracle_cfg.trace.timeseries = &oracle_ts;
    oracle_cfg.trace.sample_interval_seconds = 0.05;
    run_online_replicated(t, fds, arrivals, oracle_cfg);

    obs::TimeSeries threaded_ts;
    OnlineConfig threaded_cfg = cfg;
    threaded_cfg.trace.timeseries = &threaded_ts;
    threaded_cfg.trace.sample_interval_seconds = 0.05;
    run_online_threaded(t, fds, arrivals, threaded_cfg);

    ASSERT_GT(oracle_ts.time.size(), 0u);
    expect_timeseries_eq(oracle_ts, threaded_ts);
  }
}

TEST(ThreadedFleetProperty, TracedRunMatchesUntracedRun) {
  // Tracing through the ordered merger must not perturb the simulation
  // (the purity contract every TraceSink already obeys).
  util::Rng rng(3);
  const Table t = groupy_table(rng, 40, 3, 3);
  const table::FdSet fds;
  OnlineConfig cfg = small_config();
  cfg.n_replicas = 3;
  cfg.scheduler.window_rows = 8;
  cfg.scheduler.max_wait_seconds = 0.1;
  const auto arrivals = stream_over(40, 30.0, 55, 3);

  const auto plain = run_online_threaded(t, fds, arrivals, cfg);
  obs::TraceLog log;
  obs::TimeSeries ts;
  OnlineConfig traced_cfg = cfg;
  traced_cfg.trace.sink = &log;
  traced_cfg.trace.timeseries = &ts;
  const auto traced = run_online_threaded(t, fds, arrivals, traced_cfg);
  expect_result_eq(plain, traced);
}

// ---- Feedback-arrival (session / agentic) axis. ----
//
// Follow-up turns materialize as feedback arrivals at parent finish +
// gap, so the threaded runtime must cut an epoch before every spawn it
// cannot yet see (the min-inflight-gap cap in threaded_fleet.cpp). The
// matrix pins the whole result — including the spawned stream itself —
// bit-identical to the virtual-clock oracle across replica counts and
// both session kinds, plus threaded-rerun determinism.

TEST(ThreadedFleetProperty, SessionRunsBitIdenticalAcrossKindsAndReplicas) {
  util::Rng rng(17);
  const Table t = groupy_table(rng, 48, 3, 3);
  const table::FdSet fds;
  std::uint64_t seed = 301;
  for (std::size_t replicas : {1u, 2u, 4u}) {
    for (const SessionKind kind : {SessionKind::Chat, SessionKind::Agent}) {
      SCOPED_TRACE("replicas=" + std::to_string(replicas) +
                   " kind=" + std::to_string(static_cast<int>(kind)) +
                   " seed=" + std::to_string(seed));
      OnlineConfig cfg = small_config();
      cfg.n_replicas = replicas;
      cfg.router = RouterPolicy::PrefixAffinity;
      cfg.scheduler.window_rows = 8;
      cfg.scheduler.max_wait_seconds = 0.15;
      cfg.engine.preemption = true;
      cfg.engine.kv_pool_blocks_override = 192;  // tight enough to evict

      WorkloadOptions w;
      w.arrival_rate = 30.0;
      w.n_tenants = 4;
      w.n_requests = 36;
      w.tenant_classes = {llm::PriorityClass::Interactive,
                          llm::PriorityClass::Standard,
                          llm::PriorityClass::Batch};
      w.seed = seed++;
      SessionOptions so;
      so.kind = kind;
      so.turns = 3;
      so.mean_gap_seconds = 0.2;
      const SessionWorkload sw = generate_sessions(48, w, so);
      cfg.sessions = &sw;

      const OnlineRunResult oracle = run_online(t, fds, sw.roots, cfg);
      const OnlineRunResult threaded =
          run_online_threaded(t, fds, sw.roots, cfg);
      expect_result_eq(oracle, threaded);
      ASSERT_EQ(oracle.requests.size(), sw.roots.size() * so.turns);
      // Rerun determinism: the threaded runtime spawns the exact same
      // feedback stream again.
      expect_result_eq(threaded, run_online_threaded(t, fds, sw.roots, cfg));
    }
  }
}

TEST(ThreadedFleetProperty, SessionWithSpjfPredictorAlsoBitIdentical) {
  // Predictor state feeds SPJF decisions; it advances in oracle
  // completion order, so the threaded run must reproduce every
  // admission choice bit-for-bit too.
  util::Rng rng(23);
  const Table t = groupy_table(rng, 48, 3, 3);
  const table::FdSet fds;
  OnlineConfig cfg = small_config();
  cfg.n_replicas = 3;
  cfg.scheduler.window_rows = 8;
  cfg.scheduler.max_wait_seconds = 0.1;
  cfg.tenant_output_multiplier = {0.5, 3.0};
  cfg.predictor.enabled = true;
  cfg.scheduler.spjf = true;
  cfg.engine.spjf = true;

  WorkloadOptions w;
  w.arrival_rate = 40.0;
  w.n_tenants = 4;
  w.n_requests = 32;
  w.seed = 311;
  SessionOptions so;
  so.kind = SessionKind::Agent;
  so.turns = 2;
  so.mean_gap_seconds = 0.15;
  const SessionWorkload sw = generate_sessions(48, w, so);
  cfg.sessions = &sw;

  expect_result_eq(run_online(t, fds, sw.roots, cfg),
                   run_online_threaded(t, fds, sw.roots, cfg));
}

TEST(ThreadedFleetProperty, SessionTraceBytesIdenticalToReplicatedOracle) {
  util::Rng rng(29);
  const Table t = groupy_table(rng, 40, 3, 3);
  const table::FdSet fds;
  for (std::size_t replicas : {1u, 2u}) {
    SCOPED_TRACE("replicas=" + std::to_string(replicas));
    OnlineConfig cfg = small_config();
    cfg.n_replicas = replicas;
    cfg.router = RouterPolicy::PrefixAffinity;
    cfg.scheduler.window_rows = 8;
    cfg.scheduler.max_wait_seconds = 0.12;

    WorkloadOptions w;
    w.arrival_rate = 25.0;
    w.n_tenants = 3;
    w.n_requests = 24;
    w.seed = 401;
    SessionOptions so;
    so.kind = SessionKind::Chat;
    so.turns = 3;
    so.mean_gap_seconds = 0.2;
    const SessionWorkload sw = generate_sessions(40, w, so);
    cfg.sessions = &sw;

    obs::TraceLog oracle_log;
    OnlineConfig oracle_cfg = cfg;
    oracle_cfg.trace.sink = &oracle_log;
    const auto oracle = run_online_replicated(t, fds, sw.roots, oracle_cfg);

    obs::TraceLog threaded_log;
    OnlineConfig threaded_cfg = cfg;
    threaded_cfg.trace.sink = &threaded_log;
    const auto threaded = run_online_threaded(t, fds, sw.roots, threaded_cfg);

    // Turn chaining is on the tape: one TurnSpawn per follow-up, byte-
    // identical between the two runtimes.
    std::size_t spawns = 0;
    for (const obs::TraceEvent& e : oracle_log.events())
      if (e.kind == obs::EventKind::TurnSpawn) ++spawns;
    EXPECT_EQ(spawns, sw.roots.size() * 2);
    expect_trace_eq(oracle_log, threaded_log);
    expect_requests_eq(oracle.requests, threaded.requests);
  }
}

TEST(ThreadedFleet, EmptyStreamAndZeroReplicas) {
  util::Rng rng(1);
  const Table t = groupy_table(rng, 4, 2, 2);
  const table::FdSet fds;
  OnlineConfig cfg = small_config();
  cfg.n_replicas = 0;
  EXPECT_THROW(run_online_threaded(t, fds, {}, cfg), std::invalid_argument);
  cfg.n_replicas = 2;
  const auto out = run_online_threaded(t, fds, {}, cfg);
  EXPECT_TRUE(out.requests.empty());
  EXPECT_EQ(out.replicas.size(), 2u);
  EXPECT_EQ(out.windows, 0u);
}

TEST(ThreadedFleet, ShutdownIsIdempotentAndDestructorJoins) {
  OnlineConfig cfg = small_config();
  cfg.n_replicas = 4;
  ThreadedFleet fleet(cfg.fleet());
  EXPECT_EQ(fleet.n_replicas(), 4u);
  EXPECT_FALSE(fleet.any_work());
  fleet.shutdown();
  fleet.shutdown();  // second call is a no-op
}

}  // namespace
}  // namespace llmq::serve
