// Concurrent query serving demo: four relational LLM queries from four
// "users" share one 2-replica serving fleet instead of each spinning up a
// private engine.
//
// Two users refresh the same filter dashboard (their invocations are
// exact duplicates — answered once, fanned out by the dedup memo), one
// runs a projection, one a two-stage multi-LLM query whose stage 2 is
// submitted from inside the event loop when stage 1's filter resolves.
// The demo prints each query's answers-equivalence with the offline
// executor, then the fleet-level attribution: per-query lanes, prefix
// hits vs memo hits, and the speedup over running the queries serially
// on cold caches.
//
// Build & run:  ./build/example_concurrent_queries

#include <cstdio>

#include "query/executor.hpp"
#include "serve/query_client.hpp"
#include "cli.hpp"

using namespace llmq;

int main(int argc, char** argv) {
  examples::Cli(argc, argv, "").max_args(0);
  // -- 1. Data + query mix. ---------------------------------------------
  data::GenOptions g;
  g.n_rows = 300;
  g.seed = 7;
  const data::Dataset d = data::generate_dataset("movies", g);
  const std::vector<const data::QuerySpec*> mix = {
      &data::query_by_id("movies-filter"),
      &data::query_by_id("movies-filter"),  // same dashboard, second user
      &data::query_by_id("movies-projection"),
      &data::query_by_id("movies-multi")};

  query::ExecConfig cfg = query::ExecConfig::standard(query::Method::CacheGgr);
  cfg.scale_kv_pool(300.0 / static_cast<double>(data::paper_rows("movies")));

  // -- 2. Serial baseline: each query alone on a cold engine. -----------
  double serial_seconds = 0.0;
  std::vector<query::QueryRunResult> offline;
  for (const auto* spec : mix) {
    offline.push_back(query::run_query(d, *spec, cfg));
    serial_seconds += offline.back().total_seconds;
  }

  // -- 3. The same four queries, concurrently on one shared fleet. ------
  std::vector<serve::ServedQuerySpec> qs;
  for (std::size_t i = 0; i < mix.size(); ++i) {
    serve::ServedQuerySpec q;
    q.dataset = &d;
    q.query = mix[i];
    q.config = cfg;
    q.start_time = 0.1 * static_cast<double>(i);
    q.request_interval = 0.01;
    qs.push_back(q);
  }
  serve::FleetConfig fleet = serve::fleet_from_exec(cfg);
  fleet.n_replicas = 2;
  fleet.router = serve::RouterPolicy::PrefixAffinity;
  fleet.scale_kv_pool(300.0 / static_cast<double>(data::paper_rows("movies")) /
                      2.0);  // fixed fleet budget
  const auto r = serve::run_queries_served(qs, fleet);

  // -- 4. Results: same answers, shared-fleet economics. ----------------
  std::printf("query lanes (2 replicas, PrefixAffinity):\n");
  for (std::size_t i = 0; i < r.queries.size(); ++i) {
    const auto& lane = r.serving.per_query[i];
    std::printf(
        "  [%zu] %-18s rows %4zu  answers==offline %s  PHR %5.1f%%  "
        "memo hits %zu\n",
        i, r.queries[i].query_id.c_str(), r.queries[i].answers.size(),
        r.queries[i].answers == offline[i].answers ? "yes" : "NO",
        100.0 * lane.hit_rate(), lane.dedup_hits);
  }
  const auto& s = r.serving;
  const double eff = s.effective_hit_fraction();
  std::printf(
      "\nfleet: %zu completions, engine PHR %.1f%%, effective hit %.1f%% "
      "(%llu prompt tokens never prefilled via memo)\n",
      s.requests.size(), 100.0 * s.engine.prompt_cache_hit_rate(),
      100.0 * eff,
      static_cast<unsigned long long>(s.dedup.saved_prompt_tokens));
  std::printf("serial cold-cache: %.1fs   shared fleet: %.1fs   (%.2fx)\n",
              serial_seconds, s.latency.makespan,
              serial_seconds / s.latency.makespan);
  return 0;
}
