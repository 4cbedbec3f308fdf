// Concurrent query serving — N relational LLM queries on one shared
// replica fleet (serve/query_client.hpp) vs serial cold-cache execution.
//
// The paper optimizes LLM invocations *within* one analytical query; this
// bench asks what happens when many such queries — the same dashboards
// refreshed by many users — contend for one serving fleet with a fixed KV
// budget:
//
//   1. concurrent queries {1,2,4,8} x routing policy: aggregate prefix
//      hit rate, the exact-duplicate memo's fan-out savings, and the
//      wall-clock speedup over running the queries back to back on cold
//      caches;
//   2. the effective hit fraction decomposed into prefix hits vs memo
//      hits, showing the two layers are additive, not double-counted.
//
// The query mix repeats each spec (filter/filter/projection/projection/
// aggregation/aggregation/multi/multi), the realistic shape for shared
// endpoints: identical queries dedup wholesale, distinct queries contend
// for cache. The fleet's total KV budget is held fixed across the sweep.
//
// Use --json <path> for machine-readable results.

#include "bench_common.hpp"
#include "serve/query_client.hpp"

using namespace llmq;

namespace {

struct SerialBaseline {
  double phr = 0.0;      // aggregate cached / prompt tokens
  double seconds = 0.0;  // back-to-back job time, cold cache per query
};

SerialBaseline run_serial(const data::Dataset& d,
                          const std::vector<const data::QuerySpec*>& specs,
                          const query::ExecConfig& cfg) {
  SerialBaseline out;
  std::uint64_t hit = 0, total = 0;
  for (const data::QuerySpec* spec : specs) {
    const auto r = query::run_query(d, *spec, cfg);
    out.seconds += r.total_seconds;
    for (const auto& st : r.stages) {
      hit += st.engine.cached_prompt_tokens;
      total += st.engine.prompt_tokens;
    }
  }
  out.phr = total ? static_cast<double>(hit) / static_cast<double>(total)
                  : 0.0;
  return out;
}

const serve::RouterPolicy kPolicies[] = {
    serve::RouterPolicy::RoundRobin, serve::RouterPolicy::LeastLoaded,
    serve::RouterPolicy::TenantHash, serve::RouterPolicy::PrefixAffinity};

}  // namespace

int main(int argc, char** argv) {
  const auto opt = bench::parse_options(argc, argv, bench::kJson);
  bench::print_header(
      "Concurrent query serving — shared fleet vs serial cold-cache", opt);
  bench::JsonReport json("bench_concurrent_queries", opt);

  const char* key = "movies";
  const data::Dataset d = bench::load(key, opt, 400);
  const double kvf = static_cast<double>(d.table.num_rows()) /
                     static_cast<double>(data::paper_rows(key));

  query::ExecConfig cfg = query::ExecConfig::standard(query::Method::CacheGgr);
  cfg.scale_kv_pool(kvf);

  // Repeating mix: many users, few distinct dashboards.
  const std::vector<const data::QuerySpec*> mix = {
      &data::query_by_id("movies-filter"),
      &data::query_by_id("movies-filter"),
      &data::query_by_id("movies-projection"),
      &data::query_by_id("movies-projection"),
      &data::query_by_id("movies-aggregation"),
      &data::query_by_id("movies-aggregation"),
      &data::query_by_id("movies-multi"),
      &data::query_by_id("movies-multi")};

  std::printf("%zu movies rows, 2 replicas, fixed fleet KV budget\n\n",
              d.table.num_rows());

  util::print_banner("concurrent queries x routing policy");
  util::TablePrinter tp({"queries", "router", "serial PHR", "agg PHR",
                         "effective hit", "dedup hits", "speedup",
                         "p99 TTFT (s)"});
  for (const std::size_t nq : {1u, 2u, 4u, 8u}) {
    const std::vector<const data::QuerySpec*> specs(mix.begin(),
                                                    mix.begin() + nq);
    const SerialBaseline serial = run_serial(d, specs, cfg);

    for (const serve::RouterPolicy rp : kPolicies) {
      std::vector<serve::ServedQuerySpec> qs;
      for (std::size_t i = 0; i < nq; ++i) {
        serve::ServedQuerySpec q;
        q.dataset = &d;
        q.query = specs[i];
        q.config = cfg;
        q.start_time = 0.05 * static_cast<double>(i);
        q.request_interval = 0.01;
        qs.push_back(q);
      }
      serve::FleetConfig fleet = serve::fleet_from_exec(cfg);
      fleet.n_replicas = 2;
      fleet.router = rp;
      // Fixed fleet budget: per-replica pool = single-engine pool / 2.
      fleet.scale_kv_pool(kvf / 2.0);

      const auto r = serve::run_queries_served(qs, fleet);
      const double speedup = r.serving.latency.makespan > 0.0
                                 ? serial.seconds / r.serving.latency.makespan
                                 : 0.0;
      tp.add_row({std::to_string(nq), serve::to_string(rp),
                  bench::pct(serial.phr),
                  bench::pct(r.serving.engine.prompt_cache_hit_rate()),
                  bench::pct(r.serving.effective_hit_fraction()),
                  std::to_string(r.serving.dedup.hits),
                  util::fmt(speedup, 2) + "x",
                  util::fmt(r.serving.latency.p99_ttft, 2)});
      json.add("queries_router",
               {{"queries", nq},
                {"router", serve::to_string(rp)},
                {"replicas", 2},
                {"serial_phr", serial.phr},
                {"serial_seconds", serial.seconds},
                {"agg_phr", r.serving.engine.prompt_cache_hit_rate()},
                {"effective_hit_fraction", r.serving.effective_hit_fraction()},
                {"dedup_hits", r.serving.dedup.hits},
                {"dedup_saved_prompt_tokens",
                 r.serving.dedup.saved_prompt_tokens},
                {"makespan_s", r.serving.latency.makespan},
                {"speedup_vs_serial", speedup},
                {"p50_ttft_s", r.serving.latency.p50_ttft},
                {"p99_ttft_s", r.serving.latency.p99_ttft},
                {"load_imbalance", r.serving.load_imbalance}});
    }
  }
  tp.print();

  json.write();
  return 0;
}
