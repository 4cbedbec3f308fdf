// Online serving demo: the paper's reordering win, live on a stream.
//
// Generates a Poisson stream of multi-tenant requests over the synthetic
// Movies table and serves it twice through the online scheduler — once
// FIFO (dispatch in arrival order), once with cache-aware windowed GGR
// reordering — then prints the serving metrics side by side: prompt-cache
// hit rate, TTFT percentiles, queueing delay, goodput.
//
// Build & run:  ./build/example_online_serving
// Pass --trace out.json to also record the windowed-GGR run as a Perfetto
// trace (open it at ui.perfetto.dev): one track per replica, an async span
// per request, counter tracks for KV blocks and queue depths.

#include <cstdio>
#include <cstring>
#include <string>

#include "data/benchmark_suite.hpp"
#include "data/generators.hpp"
#include "obs/export.hpp"
#include "serve/online.hpp"
#include "cli.hpp"

using namespace llmq;

int main(int argc, char** argv) {
  const examples::Cli cli(argc, argv, "[--trace path]");
  std::string trace_path;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--trace") != 0)
      cli.usage_error("unknown flag", argv[i]);
    trace_path = cli.value(i);
  }
  // -- 1. Data: 400 rows of the Movies benchmark table. -----------------
  data::GenOptions g;
  g.n_rows = 400;
  g.seed = 7;
  const data::Dataset d = data::generate_dataset("movies", g);
  const data::QuerySpec& spec = data::query_by_id("movies-filter");
  const table::Table t = spec.stage1.fields.empty()
                             ? d.table
                             : d.table.project(spec.stage1.fields);

  // -- 2. Workload: 2 tenants, 20 req/s Poisson. ------------------------
  serve::WorkloadOptions w;
  w.arrival_rate = 20.0;
  w.n_tenants = 2;
  w.seed = 7;
  const auto arrivals = serve::generate_arrivals(t.num_rows(), w);
  std::printf("stream: %zu arrivals over %.1f simulated s\n\n",
              arrivals.size(), arrivals.back().time);

  // -- 3. Serve the same stream under both policies. --------------------
  serve::OnlineConfig cfg;
  cfg.prompt.system_prompt = spec.system_prompt;
  cfg.prompt.user_prompt = spec.stage1.user_prompt;
  cfg.avg_output_tokens = spec.stage1.avg_output_tokens;
  cfg.scheduler.window_rows = 64;
  cfg.scheduler.max_wait_seconds = 4.0;
  // Oversubscribe the KV cache the way paper-scale tables do.
  cfg.scale_kv_pool(static_cast<double>(t.num_rows()) /
                    static_cast<double>(data::paper_rows("movies")));

  obs::TraceLog trace_log;
  obs::TimeSeries timeseries;
  for (const serve::Policy policy :
       {serve::Policy::Fifo, serve::Policy::WindowedGgr}) {
    cfg.scheduler.policy = policy;
    // Trace the windowed-GGR pass only: tracing is pure (the sink never
    // feeds back into scheduling), so its metrics match the untraced run.
    const bool traced =
        !trace_path.empty() && policy == serve::Policy::WindowedGgr;
    cfg.trace.sink = traced ? &trace_log : nullptr;
    cfg.trace.timeseries = traced ? &timeseries : nullptr;
    const serve::OnlineRunResult r = serve::run_online(t, d.fds, arrivals, cfg);
    std::printf("%-12s: PHR %.0f%%  TTFT p50 %.2fs p99 %.2fs  queue %.2fs  "
                "goodput %.1f req/s  (%zu windows, planner %.1f ms)\n",
                serve::to_string(policy).c_str(),
                100.0 * r.engine.prompt_cache_hit_rate(), r.latency.p50_ttft,
                r.latency.p99_ttft, r.latency.mean_queue_delay,
                r.latency.goodput_rps, r.windows, 1e3 * r.solve_seconds);
  }
  if (!trace_path.empty()) {
    if (!obs::write_perfetto_trace(trace_path, trace_log, &timeseries))
      cli.file_error("could not write " + trace_path);
    std::printf("\n[%zu trace events -> %s; open at ui.perfetto.dev]\n",
                trace_log.size(), trace_path.c_str());
  }
  std::printf(
      "\nSame trace, same engine: the windowed-GGR scheduler turns buffer "
      "slack\ninto prefix-cache hits — the paper's batch-mode win, online.\n");
  return 0;
}
