// Replicated serving — cache-affinity routing across engine replicas.
//
// PR 1 asked how much of the paper's batch-mode prompt-cache win survives
// a stream; this bench asks how much survives *sharding*. Requests are
// scheduled by the same windowed-GGR scheduler, then routed across
// n_replicas independent engine+cache replicas:
//
//   1. replicas {1,2,4,8} x routing policy at a fixed arrival rate: how
//      fast round-robin destroys the locality the scheduler just created,
//      and how much of it affinity routing recovers;
//   2. policy x arrival rate at 4 replicas: affinity under light vs heavy
//      load (load pressure is where pure affinity pays a balance cost —
//      the load-imbalance column — and LeastLoaded pays a locality cost).
//
// The fleet's total KV budget is held fixed: each replica gets the
// single-engine pool divided by n_replicas, so sweeping the replica count
// changes sharding, not aggregate memory.
//
// Use --json <path> for machine-readable results.

#include "bench_common.hpp"
#include "serve/online.hpp"

using namespace llmq;

namespace {

serve::OnlineRunResult run_sharded(const bench::ServeFixture& s,
                                   const std::vector<serve::Arrival>& arrivals,
                                   std::size_t n_replicas,
                                   serve::RouterPolicy router) {
  serve::OnlineConfig cfg = s.config;
  cfg.n_replicas = n_replicas;
  cfg.router = router;
  // Fixed fleet budget: per-replica pool = single-engine pool / replicas.
  cfg.scale_kv_pool(s.kv_fraction / static_cast<double>(n_replicas));
  return serve::run_online(s.table, s.fds, arrivals, cfg);
}

const serve::RouterPolicy kPolicies[] = {
    serve::RouterPolicy::RoundRobin, serve::RouterPolicy::LeastLoaded,
    serve::RouterPolicy::TenantHash, serve::RouterPolicy::PrefixAffinity};

}  // namespace

int main(int argc, char** argv) {
  const auto opt = bench::parse_options(argc, argv, bench::kJson);
  bench::print_header(
      "Replicated serving — cache-affinity routing vs naive sharding", opt);
  bench::JsonReport json("bench_serving_router", opt);

  bench::ServeFixture s = bench::movies_filter_fixture(opt, 1000);
  s.config.ttft_slo_seconds = 30.0;
  s.config.scheduler.policy = serve::Policy::TenantGgr;
  s.config.scheduler.window_rows = 64;
  s.config.scheduler.max_wait_seconds = 4.0;
  const std::size_t n = s.table.num_rows();

  serve::WorkloadOptions w;
  w.n_tenants = 8;
  w.tenant_skew = 1.0;
  w.n_requests = 2 * n;  // repeat traffic: prefixes recur across the stream
  w.seed = opt.seed;
  std::printf(
      "serving %zu requests over %zu movies rows (8 tenants, Zipf 1.0, "
      "Tenant-GGR windows)\n\n",
      w.n_requests, n);

  // ---- 1. replica count x routing policy (fixed rate). ----
  {
    util::print_banner(
        "replicas x routing policy (48 r/s; fleet KV budget fixed)");
    util::TablePrinter tp({"replicas", "router", "agg PHR", "p50 TTFT (ms)",
                           "p99 TTFT (ms)", "imbalance", "goodput (r/s)"});
    w.arrival_rate = 48.0;
    const auto arrivals = serve::generate_arrivals(n, w);
    for (const std::size_t reps : {1u, 2u, 4u, 8u}) {
      for (const serve::RouterPolicy rp : kPolicies) {
        const auto r = run_sharded(s, arrivals, reps, rp);
        tp.add_row({std::to_string(reps), serve::to_string(rp),
                    bench::pct(r.engine.prompt_cache_hit_rate()),
                    bench::ms(r.latency.p50_ttft),
                    bench::ms(r.latency.p99_ttft),
                    util::fmt(r.load_imbalance, 2),
                    util::fmt(r.latency.goodput_rps, 1)});
        json.add("replicas_policy",
                 {{"replicas", reps},
                  {"router", serve::to_string(rp)},
                  {"rate", 48.0},
                  {"agg_phr", r.engine.prompt_cache_hit_rate()},
                  {"p50_ttft_s", r.latency.p50_ttft},
                  {"p99_ttft_s", r.latency.p99_ttft},
                  {"load_imbalance", r.load_imbalance},
                  {"goodput_rps", r.latency.goodput_rps},
                  {"phc", r.phc}});
      }
    }
    tp.print();
  }

  // ---- 2. routing policy x arrival rate at 4 replicas. ----
  {
    util::print_banner("routing policy x arrival rate (4 replicas)");
    util::TablePrinter tp({"rate (r/s)", "router", "agg PHR", "p50 TTFT (ms)",
                           "p99 TTFT (ms)", "imbalance", "goodput (r/s)"});
    for (const double rate : {16.0, 48.0, 96.0}) {
      w.arrival_rate = rate;
      const auto arrivals = serve::generate_arrivals(n, w);
      for (const serve::RouterPolicy rp : kPolicies) {
        const auto r = run_sharded(s, arrivals, 4, rp);
        tp.add_row({util::fmt(rate, 0), serve::to_string(rp),
                    bench::pct(r.engine.prompt_cache_hit_rate()),
                    bench::ms(r.latency.p50_ttft),
                    bench::ms(r.latency.p99_ttft),
                    util::fmt(r.load_imbalance, 2),
                    util::fmt(r.latency.goodput_rps, 1)});
        json.add("policy_rate",
                 {{"replicas", 4},
                  {"router", serve::to_string(rp)},
                  {"rate", rate},
                  {"agg_phr", r.engine.prompt_cache_hit_rate()},
                  {"p50_ttft_s", r.latency.p50_ttft},
                  {"p99_ttft_s", r.latency.p99_ttft},
                  {"load_imbalance", r.load_imbalance},
                  {"goodput_rps", r.latency.goodput_rps}});
      }
    }
    tp.print();
  }

  json.write();
  return 0;
}
