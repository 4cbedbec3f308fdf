// Replicated serving demo: cache-affinity routing across engine replicas.
//
// Serves one multi-tenant Poisson stream over the synthetic Movies table
// through 4 independent engine+cache replicas, once per routing policy,
// and prints the fleet-level serving metrics side by side: aggregate
// prompt-cache hit rate, per-replica hit rates, load imbalance, TTFT.
// Round-robin scatters prefix-sharing requests across replicas (every
// replica re-prefills the same tenant prefix); prefix-affinity probes each
// replica's radix tree read-only and keeps sharers together.
//
// Build & run:  ./build/example_router_serving

#include <cstdio>

#include "data/benchmark_suite.hpp"
#include "data/generators.hpp"
#include "serve/online.hpp"
#include "cli.hpp"

using namespace llmq;

int main(int argc, char** argv) {
  examples::Cli(argc, argv, "").max_args(0);
  // -- 1. Data: 400 rows of the Movies benchmark table. -----------------
  data::GenOptions g;
  g.n_rows = 400;
  g.seed = 7;
  const data::Dataset d = data::generate_dataset("movies", g);
  const data::QuerySpec& spec = data::query_by_id("movies-filter");
  const table::Table t = spec.stage1.fields.empty()
                             ? d.table
                             : d.table.project(spec.stage1.fields);

  // -- 2. Workload: 6 tenants, 40 req/s, repeat traffic. ----------------
  serve::WorkloadOptions w;
  w.arrival_rate = 40.0;
  w.n_tenants = 6;
  w.n_requests = 2 * t.num_rows();
  w.seed = 7;
  const auto arrivals = serve::generate_arrivals(t.num_rows(), w);
  std::printf("stream: %zu arrivals over %.1f simulated s, 4 replicas\n\n",
              arrivals.size(), arrivals.back().time);

  // -- 3. Same stream, same fleet, four routing policies. ---------------
  serve::OnlineConfig cfg;
  cfg.prompt.system_prompt = spec.system_prompt;
  cfg.prompt.user_prompt = spec.stage1.user_prompt;
  cfg.avg_output_tokens = spec.stage1.avg_output_tokens;
  cfg.scheduler.policy = serve::Policy::TenantGgr;
  cfg.scheduler.window_rows = 64;
  cfg.scheduler.max_wait_seconds = 4.0;
  cfg.n_replicas = 4;
  // Hold the fleet KV budget at the single-engine pool: each replica gets
  // a quarter, so sharding changes locality, not total memory.
  cfg.scale_kv_pool(static_cast<double>(t.num_rows()) /
                    static_cast<double>(data::paper_rows("movies")) / 4.0);

  for (const serve::RouterPolicy rp :
       {serve::RouterPolicy::RoundRobin, serve::RouterPolicy::LeastLoaded,
        serve::RouterPolicy::TenantHash,
        serve::RouterPolicy::PrefixAffinity}) {
    cfg.router = rp;
    const serve::OnlineRunResult r = serve::run_online(t, d.fds, arrivals, cfg);
    std::printf("%-14s: agg PHR %4.1f%%  TTFT p50 %.2fs p99 %.2fs  "
                "imbalance %.2f  per-replica PHR [",
                serve::to_string(rp).c_str(),
                100.0 * r.engine.prompt_cache_hit_rate(), r.latency.p50_ttft,
                r.latency.p99_ttft, r.load_imbalance);
    for (std::size_t i = 0; i < r.replicas.size(); ++i)
      std::printf("%s%.0f%%", i ? " " : "", 100.0 * r.replicas[i].hit_rate());
    std::printf("]\n");
  }
  return 0;
}
