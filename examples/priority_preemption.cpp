// Priority-preemption demo: interactive rows evict batch analytics rows.
//
// Serves a three-class stream (interactive / standard / batch tenants;
// batch rows decode 8x longer) over the synthetic Movies table at 2x the
// sustainable rate, once without and once with engine-level preemption,
// and prints the per-class serving breakdown side by side. Without
// preemption the only lever is admission order, so an interactive arrival
// waits for a running batch generation to finish; with preemption the
// engine releases the batch row's KV blocks (its cached prompt prefix
// stays in the radix tree), admits the interactive row immediately, and
// later resumes the victim by replaying prefill through the prefix cache.
//
// Build & run:  ./build/example_priority_preemption

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

  // -- 2. Workload: three tenants, one per priority class. --------------
  serve::WorkloadOptions w;
  w.arrival_rate = 8.0;  // ~2x what this fleet sustains for the mix
  w.n_tenants = 3;
  w.tenant_skew = 0.0;
  w.tenant_classes = {llm::PriorityClass::Interactive,
                      llm::PriorityClass::Standard,
                      llm::PriorityClass::Batch};
  w.n_requests = 2 * t.num_rows();
  w.seed = 7;
  const auto arrivals = serve::generate_arrivals(t.num_rows(), w);
  std::printf("stream: %zu arrivals over %.1f simulated s, 3 classes\n\n",
              arrivals.size(), arrivals.back().time);

  // -- 3. Same stream, same fleet, preemption off vs on. ----------------
  serve::OnlineConfig cfg;
  cfg.prompt.system_prompt = spec.system_prompt;
  cfg.prompt.user_prompt = spec.stage1.user_prompt;
  cfg.avg_output_tokens = 8.0;
  cfg.class_output_multiplier = {0.5, 1.0, 8.0};  // batch = long decodes
  cfg.ttft_slo_seconds = 2.0;
  cfg.scheduler.policy = serve::Policy::WindowedGgr;
  cfg.scheduler.window_rows = 32;
  cfg.scheduler.max_wait_seconds = 1.0;
  cfg.scheduler.priority_order = true;
  cfg.scheduler.aging_seconds = 60.0;
  cfg.engine.max_batch_size = 8;
  cfg.engine.priority_aging_seconds = 60.0;
  cfg.n_replicas = 2;
  cfg.scale_kv_pool(static_cast<double>(t.num_rows()) /
                    static_cast<double>(data::paper_rows("movies")));

  for (const bool preempt : {false, true}) {
    cfg.engine.preemption = preempt;
    const auto r = serve::run_online(t, d.fds, arrivals, cfg);
    std::printf("preemption %-3s  (%llu preemptions, %llu recompute tokens)\n",
                preempt ? "ON" : "OFF",
                static_cast<unsigned long long>(r.engine.preemptions),
                static_cast<unsigned long long>(
                    r.engine.recompute_prefill_tokens));
    for (const auto& pc : r.per_class) {
      if (pc.requests == 0) continue;
      std::printf(
          "  %-12s %4zu done | p50 TTFT %7.0f ms | p99 TTFT %7.0f ms | "
          "goodput %.2f r/s | preempted %zu\n",
          llm::to_string(pc.priority).c_str(), pc.requests,
          1000.0 * pc.latency.p50_ttft, 1000.0 * pc.latency.p99_ttft,
          pc.latency.goodput_rps, pc.preemptions);
    }
    std::printf("\n");
  }

  std::printf(
      "Interactive p99 TTFT collapses when preemption can evict running\n"
      "batch rows; batch rows all still finish — aging re-queues them and\n"
      "their resumes replay prefill through the prefix cache.\n");
  return 0;
}
