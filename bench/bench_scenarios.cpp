// Serving scenarios — multi-turn sessions, agentic loops, and
// length-aware (SPJF) scheduling.
//
// Every number here is simulated (virtual-clock) time, so every section
// is golden-diffable. Four sections, each with a built-in self-check that
// exits nonzero on violation — the bench doubles as an acceptance gate:
//
//   session_turns    — the same root stream served as 1-, 2-, and 4-turn
//                      chat sessions. A follow-up turn's prompt extends
//                      its parent's prompt + output verbatim, so the
//                      parent prefix is sitting in the KV cache when the
//                      child arrives: aggregate PHR at >= 2 turns must
//                      beat the one-shot baseline.
//   agentic          — tool-use loops (each completion spawns the next
//                      call) on a replicated fleet, traced; the run must
//                      pass obs::audit_trace including its session
//                      turn-chaining invariant, with exactly
//                      roots * (turns - 1) TurnSpawn events.
//   spjf_overload    — an overloaded single-class stream where half the
//                      tenants decode ~16x longer than the other half.
//                      With the per-tenant length predictor feeding
//                      shortest-predicted-job-first admission + dispatch,
//                      short-tenant p99 TTFT must improve over FIFO
//                      without losing a single completion.
//   penalty_ablation — the mispredict-penalty knob replayed over a fixed
//                      observation stream: predictions must be monotone
//                      nondecreasing in the penalty (the knob only ever
//                      pads, never shrinks).
//
// Use --json <path> for machine-readable results.

#include <cmath>

#include "bench_common.hpp"
#include "obs/audit.hpp"
#include "serve/online.hpp"
#include "util/stats.hpp"

using namespace llmq;

namespace {

/// p99 TTFT over the completions a predicate selects; 0 when none match.
template <typename Pred>
double p99_ttft_where(const serve::OnlineRunResult& r, Pred&& pred) {
  std::vector<double> xs;
  for (const serve::ServedRequest& sr : r.requests)
    if (pred(sr)) xs.push_back(sr.ttft());
  return xs.empty() ? 0.0 : util::percentile(std::move(xs), 99.0);
}

int fail(const char* what) {
  std::fprintf(stderr, "SELF-CHECK FAILED: %s\n", what);
  return 1;
}

}  // namespace

int main(int argc, char** argv) {
  const auto opt = bench::parse_options(argc, argv, bench::kJson);
  bench::print_header(
      "Serving scenarios — sessions, agents & length-aware scheduling", opt);
  bench::JsonReport json("bench_scenarios", opt);

  bench::ServeFixture s = bench::movies_filter_fixture(opt, 600);
  s.config.ttft_slo_seconds = 30.0;
  s.config.router = serve::RouterPolicy::PrefixAffinity;
  const std::size_t n = s.table.num_rows();

  // ---- 1. Multi-turn chat sessions vs the one-shot baseline. ----
  util::print_banner("multi-turn chat: PHR vs session depth");
  {
    util::TablePrinter tp({"turns", "requests", "agg PHR", "p99 TTFT (ms)",
                           "p50 e2e (s)", "windows"});
    serve::WorkloadOptions w;
    w.n_tenants = 6;
    w.tenant_skew = 1.0;
    w.n_requests = n / 2;
    w.seed = opt.seed;

    double phr1 = 0.0, phr2 = 0.0, phr4 = 0.0;
    for (const std::size_t turns : {1u, 2u, 4u}) {
      // Constant offered load across arms: a depth-k session multiplies
      // each root into k requests, so roots arrive k-times slower — the
      // comparison isolates prefix reuse, not admission overload.
      w.arrival_rate = 6.0 / static_cast<double>(turns);
      serve::SessionOptions so;
      so.kind = serve::SessionKind::Chat;
      so.turns = turns;
      so.mean_gap_seconds = 0.4;
      const serve::SessionWorkload sw =
          serve::generate_sessions(n, w, so);

      serve::OnlineConfig cfg = s.config;
      cfg.scheduler.policy = serve::Policy::Fifo;
      cfg.scheduler.window_rows = 32;
      cfg.scheduler.max_wait_seconds = 0.5;
      cfg.sessions = &sw;
      // Headroom over the per-stream scaling: session prompts are 2-4x
      // longer, and the PHR claim is about prefix reuse, not eviction
      // pressure — the paper-regime pressure sections are elsewhere. The
      // pool scales with depth so offered KV demand / capacity stays
      // constant across arms (a depth-k turn carries ~k turns of history).
      cfg.scale_kv_pool(std::min(
          1.0, 8.0 * s.kv_fraction * static_cast<double>(turns)));
      const serve::OnlineRunResult r =
          serve::run_online(s.table, s.fds, sw.roots, cfg);

      const double phr = r.engine.prompt_cache_hit_rate();
      if (turns == 1) phr1 = phr;
      if (turns == 2) phr2 = phr;
      if (turns == 4) phr4 = phr;
      tp.add_row({std::to_string(turns), std::to_string(r.requests.size()),
                  bench::pct(phr), util::fmt(1000.0 * r.latency.p99_ttft, 0),
                  util::fmt(r.latency.p50_e2e, 2),
                  std::to_string(r.windows)});
      json.add("session_turns", {{"turns", turns},
                                 {"requests", r.requests.size()},
                                 {"agg_phr", phr},
                                 {"p99_ttft_s", r.latency.p99_ttft},
                                 {"p50_e2e_s", r.latency.p50_e2e},
                                 {"windows", r.windows}});
    }
    tp.print();
    std::printf("\n(a follow-up turn replays its parent's prompt + output as "
                "an exact prefix,\n so deeper sessions push PHR up)\n\n");
    if (!(phr2 > phr1) || !(phr4 > phr1)) {
      json.write();
      return fail("session PHR at >= 2 turns must beat the one-shot PHR");
    }
  }

  // ---- 2. Agentic tool-use loops, traced + audited. ----
  util::print_banner("agentic loops: feedback arrivals under audit");
  {
    serve::WorkloadOptions w;
    w.n_tenants = 4;
    w.tenant_skew = 1.0;
    w.n_requests = n / 2;
    w.arrival_rate = 16.0;
    w.seed = opt.seed;
    serve::SessionOptions so;
    so.kind = serve::SessionKind::Agent;
    so.turns = 3;
    so.mean_gap_seconds = 0.2;
    const serve::SessionWorkload sw =
        serve::generate_sessions(n, w, so);

    obs::TraceLog log;
    serve::OnlineConfig cfg = s.config;
    cfg.scheduler.policy = serve::Policy::Fifo;
    cfg.scheduler.window_rows = 16;
    cfg.scheduler.max_wait_seconds = 0.5;
    cfg.sessions = &sw;
    cfg.n_replicas = 2;
    cfg.trace.sink = &log;
    cfg.scale_kv_pool(s.kv_fraction);
    const serve::OnlineRunResult r =
        serve::run_online(s.table, s.fds, sw.roots, cfg);
    const obs::AuditResult audit = obs::audit_trace(log);

    const std::size_t roots = sw.roots.size();
    const std::size_t expected_spawns = roots * (so.turns - 1);
    std::printf("%zu agent loops x %zu turns on 2 replicas: %zu completions, "
                "%zu turn spawns, audit %s (%zu events)\n\n",
                roots, static_cast<std::size_t>(so.turns), r.requests.size(),
                audit.turn_spawns, audit.ok() ? "ok" : "FAILED", audit.events);
    json.add("agentic", {{"replicas", std::size_t{2}},
                         {"roots", roots},
                         {"turns", static_cast<std::size_t>(so.turns)},
                         {"requests", r.requests.size()},
                         {"turn_spawns", audit.turn_spawns},
                         {"audit_ok", audit.ok() ? 1 : 0},
                         {"agg_phr", r.engine.prompt_cache_hit_rate()}});
    if (!audit.ok()) {
      std::fprintf(stderr, "audit: %s\n", audit.first_violation().c_str());
      json.write();
      return fail("agentic trace must pass audit_trace");
    }
    if (audit.turn_spawns != expected_spawns ||
        r.requests.size() != roots * so.turns) {
      json.write();
      return fail("agentic run must spawn every turn exactly once");
    }
  }

  // ---- 3. SPJF under overload: short-predicted jobs first. ----
  util::print_banner("SPJF at overload: predictor-ordered admission");
  double base_short_p99 = 0.0, spjf_short_p99 = 0.0;
  std::size_t base_done = 0, spjf_done = 0;
  serve::OnlineRunResult base_run;  // penalty ablation replays its stream
  {
    util::TablePrinter tp({"arm", "completions", "short p99 TTFT (s)",
                           "long p99 TTFT (s)", "p99 TTFT (s)", "agg PHR"});
    serve::WorkloadOptions w;
    w.n_tenants = 8;
    w.tenant_skew = 0.0;  // uniform: every tenant contributes to both p99s
    w.n_requests = 2 * n;
    w.arrival_rate = 160.0;  // well past the service rate: queues build
    w.seed = opt.seed;
    const auto arrivals = serve::generate_arrivals(n, w);

    for (const bool spjf : {false, true}) {
      serve::OnlineConfig cfg = s.config;
      cfg.scheduler.policy = serve::Policy::Fifo;
      cfg.scheduler.window_rows = 16;
      cfg.scheduler.max_wait_seconds = 0.25;
      // Even tenants are short generations, odd tenants ~16x longer.
      cfg.tenant_output_multiplier = {0.25, 4.0};
      cfg.predictor.enabled = true;
      cfg.scheduler.spjf = spjf;
      cfg.engine.spjf = spjf;
      cfg.scale_kv_pool(s.kv_fraction);
      const serve::OnlineRunResult r =
          serve::run_online(s.table, s.fds, arrivals, cfg);

      const auto is_short = [](const serve::ServedRequest& sr) {
        return sr.tenant % 2 == 0;
      };
      const auto is_long = [](const serve::ServedRequest& sr) {
        return sr.tenant % 2 == 1;
      };
      const double short_p99 = p99_ttft_where(r, is_short);
      const double long_p99 = p99_ttft_where(r, is_long);
      if (spjf) {
        spjf_short_p99 = short_p99;
        spjf_done = r.requests.size();
      } else {
        base_short_p99 = short_p99;
        base_done = r.requests.size();
        base_run = r;
      }
      tp.add_row({spjf ? "spjf" : "fifo", std::to_string(r.requests.size()),
                  util::fmt(short_p99, 2), util::fmt(long_p99, 2),
                  util::fmt(r.latency.p99_ttft, 2),
                  bench::pct(r.engine.prompt_cache_hit_rate())});
      json.add("spjf_overload",
               {{"arm", spjf ? "spjf" : "fifo"},
                {"completions", r.requests.size()},
                {"short_p99_ttft_s", short_p99},
                {"long_p99_ttft_s", long_p99},
                {"p99_ttft_s", r.latency.p99_ttft},
                {"agg_phr", r.engine.prompt_cache_hit_rate()}});
    }
    tp.print();
    std::printf("\n(short-predicted tenants jump the queue within their "
                "class; every request\n still completes — the long tail "
                "pays latency, not completions)\n\n");
    if (spjf_done != base_done) {
      json.write();
      return fail("SPJF must not change the number of completions");
    }
    if (!(spjf_short_p99 < base_short_p99)) {
      json.write();
      return fail("SPJF must improve short-tenant p99 TTFT at overload");
    }
  }

  // ---- 4. Mispredict-penalty ablation over a fixed stream. ----
  util::print_banner("mispredict penalty: prediction padding ablation");
  {
    util::TablePrinter tp({"penalty", "mean predicted (tok)"});
    double prev = 0.0;
    bool monotone = true;
    bool first = true;
    for (const double penalty : {0.0, 0.5, 1.0, 2.0}) {
      serve::LengthPredictorOptions popt;
      popt.enabled = true;
      popt.mispredict_penalty = penalty;
      serve::LengthPredictor pred(popt);
      // Replay the FIFO arm's completion stream — identical observations
      // per penalty, so the comparison isolates the knob.
      for (const serve::ServedRequest& sr : base_run.requests)
        pred.observe(sr.tenant, sr.output_tokens);
      double sum = 0.0;
      for (std::uint32_t tenant = 0; tenant < 8; ++tenant)
        sum += pred.predict(tenant);
      const double mean_pred = sum / 8.0;
      if (!first && mean_pred + 1e-12 < prev) monotone = false;
      first = false;
      prev = mean_pred;
      tp.add_row({util::fmt(penalty, 1), util::fmt(mean_pred, 2)});
      json.add("penalty_ablation",
               {{"penalty", penalty}, {"mean_predicted_tokens", mean_pred}});
    }
    tp.print();
    std::printf("\n(the penalty pads each prediction by penalty x EWMA "
                "absolute error — it can\n only grow predictions, trading "
                "SPJF aggressiveness for mispredict safety)\n");
    if (!monotone) {
      json.write();
      return fail("mean prediction must be monotone in mispredict_penalty");
    }
  }

  json.write();
  return 0;
}
