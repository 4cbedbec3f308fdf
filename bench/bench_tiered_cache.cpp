// Tiered KV cache + elastic fleet — GPU/host tiers vs a flat cache under
// multi-tenant Zipf overload (DESIGN.md §13).
//
// A flat cache destroys every block it evicts; the tier hierarchy demotes
// cold blocks to host DRAM and promotes them back on hit, paying the
// per-tier link price (CostModel::promote_seconds) into TTFT. The bench
// pits the two against each other on the same fixed fleet KV budget:
//
//   1. tiers_vs_flat: 2-8 replicas serving a Zipf multi-tenant overload
//      stream. SELF-CHECKED headline: at every replica count the tiered
//      arm's aggregate PHR must be >= the flat arm's (strictly greater
//      somewhere), with interactive p99 TTFT no worse — promotion is
//      priced, so this is an honest win, not free-hit accounting;
//   2. split_sweep: host-tier capacity from tiny to unbounded at fixed
//      replicas — how much host DRAM buys how much hit rate;
//   3. elasticity: watermark-driven scale-up under a burst, cold spawns
//      vs warm spawns that migrate hot prefixes from the most-loaded
//      donor; the trace auditor must pass either way;
//   4. determinism: the tiered + elastic run on the real-threads runtime
//      must match the virtual-clock oracle (exit 1 on divergence).
//
// Use --json <path> for machine-readable results.

#include "bench_common.hpp"
#include "obs/audit.hpp"
#include "obs/trace.hpp"
#include "serve/online.hpp"
#include "serve/threaded_fleet.hpp"

using namespace llmq;

namespace {

std::vector<serve::Arrival> make_stream(const bench::ServeFixture& s,
                                        double rate, std::uint64_t seed) {
  serve::WorkloadOptions w;
  w.arrival_rate = rate;
  w.n_tenants = 9;        // 3 tenants per class
  w.tenant_skew = 1.0;    // Zipf: a few hot tenants dominate the prefixes
  w.tenant_classes = {llm::PriorityClass::Interactive,
                      llm::PriorityClass::Standard,
                      llm::PriorityClass::Batch};
  w.n_requests = 3 * s.table.num_rows();  // repeat traffic: prefixes recur
  w.seed = seed;
  return serve::generate_arrivals(s.table.num_rows(), w);
}

const serve::PriorityClassMetrics& cls(const serve::OnlineRunResult& r,
                                       llm::PriorityClass c) {
  return r.per_class[static_cast<std::size_t>(c)];
}

/// Shared fleet budget, deliberately tight: the per-replica GPU pool is
/// HALF the proportional share, so the flat cache sheds shared prefixes
/// under load — the regime the tier hierarchy exists for.
void apply_pool(serve::OnlineConfig& cfg, const bench::ServeFixture& s,
                std::size_t reps) {
  cfg.n_replicas = reps;
  cfg.scale_kv_pool(0.5 * s.kv_fraction / static_cast<double>(reps));
}

bool determinism_match(const serve::OnlineRunResult& a,
                       const serve::OnlineRunResult& b) {
  return a.requests.size() == b.requests.size() &&
         a.engine.prompt_tokens == b.engine.prompt_tokens &&
         a.engine.cached_prompt_tokens == b.engine.cached_prompt_tokens &&
         a.engine.output_tokens == b.engine.output_tokens &&
         a.engine.cache.demoted_blocks == b.engine.cache.demoted_blocks &&
         a.engine.cache.promoted_blocks == b.engine.cache.promoted_blocks &&
         a.phc == b.phc && a.latency.p99_ttft == b.latency.p99_ttft &&
         a.load_imbalance == b.load_imbalance;
}

std::string ms(double seconds) { return util::fmt(1000.0 * seconds, 1); }

}  // namespace

int main(int argc, char** argv) {
  const auto opt = bench::parse_options(argc, argv, bench::kJson);
  bench::print_header("Tiered KV cache + elastic fleet vs flat cache", opt);
  bench::JsonReport json("bench_tiered_cache", opt);

  bench::ServeFixture s = bench::movies_filter_fixture(opt, 600);
  s.config.avg_output_tokens = 6.0;
  s.config.class_output_multiplier = {0.5, 1.0, 4.0};
  s.config.ttft_slo_seconds = 2.0;
  s.config.scheduler.policy = serve::Policy::WindowedGgr;
  s.config.scheduler.window_rows = 32;
  s.config.scheduler.max_wait_seconds = 1.0;
  s.config.scheduler.priority_order = true;
  s.config.scheduler.aging_seconds = 8.0;
  s.config.engine.max_batch_size = 8;
  s.config.engine.priority_aging_seconds = 8.0;
  s.config.router = serve::RouterPolicy::PrefixAffinity;
  const std::size_t n = s.table.num_rows();
  // Constant per-replica overload: arrivals outpace sustainable goodput at
  // every fleet size without collapsing the small fleets into a pure
  // queueing regime where ordering noise swamps the cache effect.
  const double rate_per_replica = 8.0;
  std::printf("serving %zu requests over %zu movies rows, 9 Zipf tenants "
              "(3 per class), fixed tight fleet KV budget\n\n",
              3 * n, n);
  bool ok = true;

  // ---- 1. tiers vs flat across fleet sizes. ----
  {
    util::print_banner("tiers vs flat (2-8 replicas, Zipf overload)");
    util::TablePrinter tp({"replicas", "arm", "agg PHR", "int p99 TTFT (ms)",
                           "goodput r/s", "demoted", "promoted",
                           "promote (ms)"});
    bool phr_strict_win = false;
    for (const std::size_t reps : {2u, 4u, 8u}) {
      serve::OnlineConfig flat_cfg = s.config;
      apply_pool(flat_cfg, s, reps);
      serve::OnlineConfig tier_cfg = flat_cfg;
      tier_cfg.engine.cache_tiers = 2;  // host tier unbounded
      const auto arrivals =
          make_stream(s, rate_per_replica * static_cast<double>(reps),
                      opt.seed);

      const auto flat = serve::run_online(s.table, s.fds, arrivals, flat_cfg);
      const auto tier = serve::run_online(s.table, s.fds, arrivals, tier_cfg);
      for (const auto* arm : {&flat, &tier}) {
        const bool tiered = arm == &tier;
        const auto& ic = cls(*arm, llm::PriorityClass::Interactive);
        tp.add_row({std::to_string(reps), tiered ? "tiered" : "flat",
                    bench::pct(arm->engine.prompt_cache_hit_rate()),
                    ms(ic.latency.p99_ttft),
                    util::fmt(arm->latency.goodput_rps, 1),
                    std::to_string(arm->engine.cache.demoted_blocks),
                    std::to_string(arm->engine.cache.promoted_blocks),
                    ms(arm->engine.promote_seconds)});
        json.add("tiers_vs_flat",
                 {{"replicas", reps},
                  {"arm", tiered ? "tiered" : "flat"},
                  {"agg_phr", arm->engine.prompt_cache_hit_rate()},
                  {"interactive_p99_ttft_s", ic.latency.p99_ttft},
                  {"p99_ttft_s", arm->latency.p99_ttft},
                  {"goodput_rps", arm->latency.goodput_rps},
                  {"demoted_blocks", arm->engine.cache.demoted_blocks},
                  {"promoted_blocks", arm->engine.cache.promoted_blocks},
                  {"promote_seconds", arm->engine.promote_seconds},
                  {"load_imbalance", arm->load_imbalance}});
      }

      // The self-checked headline: tiers must pay for themselves.
      const double phr_f = flat.engine.prompt_cache_hit_rate();
      const double phr_t = tier.engine.prompt_cache_hit_rate();
      const double p99_f =
          cls(flat, llm::PriorityClass::Interactive).latency.p99_ttft;
      const double p99_t =
          cls(tier, llm::PriorityClass::Interactive).latency.p99_ttft;
      if (phr_t < phr_f) {
        std::fprintf(stderr,
                     "ERROR: tiered PHR %.4f below flat %.4f at %zu "
                     "replicas\n",
                     phr_t, phr_f, reps);
        ok = false;
      }
      if (p99_t > p99_f + 1e-9) {
        std::fprintf(stderr,
                     "ERROR: tiered interactive p99 TTFT %.6fs worse than "
                     "flat %.6fs at %zu replicas\n",
                     p99_t, p99_f, reps);
        ok = false;
      }
      if (tier.engine.cache.demoted_blocks == 0) {
        std::fprintf(stderr,
                     "ERROR: tiered arm never demoted at %zu replicas — "
                     "the pool is not tight enough to exercise tiers\n",
                     reps);
        ok = false;
      }
      phr_strict_win = phr_strict_win || phr_t > phr_f;
    }
    tp.print();
    if (!phr_strict_win) {
      std::fprintf(stderr,
                   "ERROR: tiered never strictly beat flat PHR at any "
                   "fleet size\n");
      ok = false;
    }
  }

  // ---- 2. host-capacity split sweep. ----
  {
    util::print_banner("host-tier capacity sweep (4 replicas)");
    util::TablePrinter tp({"host cap (blocks)", "agg PHR",
                           "int p99 TTFT (ms)", "demoted", "evicted",
                           "promote (ms)"});
    for (const std::size_t host_cap : {8u, 32u, 128u, 0u}) {
      serve::OnlineConfig cfg = s.config;
      apply_pool(cfg, s, 4);
      cfg.engine.cache_tiers = 2;
      cfg.engine.host_capacity_blocks = host_cap;
      const auto arrivals = make_stream(s, 4.0 * rate_per_replica, opt.seed);
      const auto r = serve::run_online(s.table, s.fds, arrivals, cfg);
      const auto& ic = cls(r, llm::PriorityClass::Interactive);
      const std::string cap_str =
          host_cap ? std::to_string(host_cap) : std::string("unbounded");
      tp.add_row({cap_str, bench::pct(r.engine.prompt_cache_hit_rate()),
                  ms(ic.latency.p99_ttft),
                  std::to_string(r.engine.cache.demoted_blocks),
                  std::to_string(r.engine.cache.evicted_blocks),
                  ms(r.engine.promote_seconds)});
      json.add("split_sweep",
               {{"host_capacity_blocks", host_cap},
                {"agg_phr", r.engine.prompt_cache_hit_rate()},
                {"interactive_p99_ttft_s", ic.latency.p99_ttft},
                {"demoted_blocks", r.engine.cache.demoted_blocks},
                {"evicted_blocks", r.engine.cache.evicted_blocks},
                {"promote_seconds", r.engine.promote_seconds}});
    }
    tp.print();
  }

  // ---- 3. elasticity: cold vs warm spawns under a burst. ----
  {
    util::print_banner("elastic scale-up under burst (cold vs warm spawns)");
    util::TablePrinter tp({"spawn", "agg PHR", "int p99 TTFT (ms)", "spawns",
                           "drains", "migrations", "migrated blocks",
                           "audit"});
    // The whole fleet's traffic lands on one replica until the watermarks
    // react — the scale-up burst the elasticity hooks exist for.
    const auto burst = make_stream(s, 36.0, opt.seed);
    for (const std::size_t migrate : {0u, 64u}) {
      serve::OnlineConfig cfg = s.config;
      apply_pool(cfg, s, 1);  // start small, grow under the burst
      cfg.engine.cache_tiers = 2;
      cfg.elasticity.enabled = true;
      cfg.elasticity.min_replicas = 1;
      cfg.elasticity.max_replicas = 3;
      cfg.elasticity.high_watermark_tokens = 600;
      cfg.elasticity.low_watermark_tokens = 100;
      cfg.elasticity.migrate_max_blocks = migrate;
      cfg.elasticity.cooldown_seconds = 0.5;
      obs::TraceLog log;
      cfg.trace.sink = &log;
      const auto r = serve::run_online(s.table, s.fds, burst, cfg);
      const auto audit = obs::audit_trace(log);
      const auto& ic = cls(r, llm::PriorityClass::Interactive);
      if (!audit.ok()) {
        std::fprintf(stderr, "ERROR: elasticity audit failed: %s\n",
                     audit.first_violation().c_str());
        ok = false;
      }
      tp.add_row({migrate ? "warm" : "cold",
                  bench::pct(r.engine.prompt_cache_hit_rate()),
                  ms(ic.latency.p99_ttft),
                  std::to_string(audit.replica_spawns),
                  std::to_string(audit.replica_drains),
                  std::to_string(audit.prefix_migrations),
                  std::to_string(audit.migrated_blocks),
                  audit.ok() ? "ok" : "FAIL"});
      json.add("elasticity",
               {{"spawn", migrate ? "warm" : "cold"},
                {"migrate_max_blocks", migrate},
                {"agg_phr", r.engine.prompt_cache_hit_rate()},
                {"interactive_p99_ttft_s", ic.latency.p99_ttft},
                {"p99_ttft_s", r.latency.p99_ttft},
                {"replica_spawns", audit.replica_spawns},
                {"replica_drains", audit.replica_drains},
                {"prefix_migrations", audit.prefix_migrations},
                {"migrated_blocks", audit.migrated_blocks},
                {"audit_ok", audit.ok() ? 1 : 0}});
    }
    tp.print();
  }

  // ---- 4. determinism: threaded runtime vs virtual-clock oracle. ----
  {
    util::print_banner("determinism (tiered + elastic, threaded vs oracle)");
    serve::OnlineConfig cfg = s.config;
    apply_pool(cfg, s, 2);
    cfg.engine.cache_tiers = 2;
    cfg.elasticity.enabled = true;
    cfg.elasticity.max_replicas = 3;
    cfg.elasticity.high_watermark_tokens = 600;
    cfg.elasticity.low_watermark_tokens = 100;
    cfg.elasticity.migrate_max_blocks = 64;
    cfg.elasticity.cooldown_seconds = 0.5;
    const auto burst = make_stream(s, 36.0, opt.seed);
    const auto virt = serve::run_online_replicated(s.table, s.fds, burst,
                                                   cfg);
    const auto thr = serve::run_online_threaded(s.table, s.fds, burst, cfg);
    const bool identical = determinism_match(virt, thr);
    std::printf("threaded runtime vs virtual clock: %s\n",
                identical ? "bit-identical headline numbers"
                          : "DIVERGED");
    json.add("determinism",
             {{"replicas", std::size_t{2}},
              {"determinism_match", identical ? 1 : 0}});
    if (!identical) {
      std::fprintf(stderr,
                   "ERROR: threaded tiered/elastic run diverged from the "
                   "virtual-clock oracle\n");
      ok = false;
    }
  }

  json.write();
  if (!ok) {
    std::fprintf(stderr, "\nbench_tiered_cache: SELF-CHECK FAILED\n");
    return 1;
  }
  std::printf("\nself-checks passed: tiered PHR >= flat everywhere (strict "
              "somewhere),\ninteractive p99 TTFT no worse, audits clean, "
              "drivers bit-identical\n");
  return 0;
}
