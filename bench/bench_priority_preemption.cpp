// Priority classes under overload — engine-level preemption vs waiting.
//
// The serving stack treats every request as equal until priority classes
// arrive: under overload an interactive row queues behind batch analytics
// scans, and the only lever is admission order. This bench serves a
// three-class stream (interactive / standard / batch tenants; batch rows
// decode ~8x longer, the analytics shape) at multiples of a sustainable
// base rate and toggles EngineConfig::preemption:
//
//   1. overload sweep: rate multiplier x preemption on/off. The headline
//      is per-class: interactive p99 TTFT must improve at >= 2x overload
//      when preemption can evict running batch rows, while batch-class
//      completion is preserved (aging re-queues victims, every request
//      finishes) and pays with recompute + degraded latency;
//   2. aging sweep: the anti-starvation knob at 2x overload — small
//      horizons protect batch latency, large ones protect interactive.
//
// Use --json <path> for machine-readable results.

#include <array>

#include "bench_common.hpp"
#include "serve/online.hpp"

using namespace llmq;

namespace {

std::vector<serve::Arrival> make_stream(const bench::ServeFixture& s,
                                        double rate, std::uint64_t seed) {
  serve::WorkloadOptions w;
  w.arrival_rate = rate;
  w.n_tenants = 3;
  w.tenant_skew = 0.0;  // balanced classes: each ~1/3 of arrivals
  w.tenant_classes = {llm::PriorityClass::Interactive,
                      llm::PriorityClass::Standard,
                      llm::PriorityClass::Batch};
  w.n_requests = 2 * s.table.num_rows();
  w.seed = seed;
  return serve::generate_arrivals(s.table.num_rows(), w);
}

const serve::PriorityClassMetrics& cls(const serve::OnlineRunResult& r,
                                       llm::PriorityClass c) {
  return r.per_class[static_cast<std::size_t>(c)];
}

}  // namespace

int main(int argc, char** argv) {
  const auto opt = bench::parse_options(argc, argv, bench::kJson);
  bench::print_header(
      "Priority classes — engine-level preemption under overload", opt);
  bench::JsonReport json("bench_priority_preemption", opt);

  bench::ServeFixture s = bench::movies_filter_fixture(opt, 600);
  s.config.avg_output_tokens = 8.0;
  // Interactive rows are short completions; batch rows are long analytics
  // generations that hold batch slots — the preemption target.
  s.config.class_output_multiplier = {0.5, 1.0, 8.0};
  s.config.ttft_slo_seconds = 2.0;
  s.config.scheduler.policy = serve::Policy::WindowedGgr;
  s.config.scheduler.window_rows = 32;
  s.config.scheduler.max_wait_seconds = 1.0;
  s.config.scheduler.priority_order = true;
  s.config.scheduler.aging_seconds = 60.0;
  s.config.engine.max_batch_size = 8;
  s.config.engine.priority_aging_seconds = 60.0;
  s.config.n_replicas = 2;
  s.config.router = serve::RouterPolicy::PrefixAffinity;
  const std::size_t n = s.table.num_rows();
  std::printf("serving %zu movie rows as a 3-class stream "
              "(interactive/standard/batch tenants, batch decodes 8x)\n\n",
              n);

  // Base rate: what the two-replica fleet sustains with headroom at this
  // scale (empirically ~its aggregate decode throughput for this mix).
  const double base_rate = 4.0;

  // ---- 1. overload sweep x preemption. ----
  double p99_on_2x = 0.0, p99_off_2x = 0.0;
  {
    util::print_banner(
        "overload sweep (rate = mult x base, preemption off vs on)");
    util::TablePrinter tp({"mult", "preempt", "int p99 TTFT (ms)",
                           "std p99 TTFT (ms)", "batch p99 e2e (ms)",
                           "int goodput (r/s)", "batch done", "preempts",
                           "recompute tok"});
    for (double mult : {1.0, 2.0, 3.0}) {
      const auto arrivals = make_stream(s, mult * base_rate, opt.seed);
      for (const bool preempt : {false, true}) {
        serve::OnlineConfig cfg = s.config;
        cfg.engine.preemption = preempt;
        const auto r = serve::run_online(s.table, s.fds, arrivals, cfg);
        const auto& ic = cls(r, llm::PriorityClass::Interactive);
        const auto& sc = cls(r, llm::PriorityClass::Standard);
        const auto& bc = cls(r, llm::PriorityClass::Batch);
        if (mult == 2.0 && preempt) p99_on_2x = ic.latency.p99_ttft;
        if (mult == 2.0 && !preempt) p99_off_2x = ic.latency.p99_ttft;
        tp.add_row({util::fmt(mult, 0), preempt ? "on" : "off",
                    bench::ms(ic.latency.p99_ttft),
                    bench::ms(sc.latency.p99_ttft),
                    bench::ms(bc.latency.p99_e2e),
                    util::fmt(ic.latency.goodput_rps, 1),
                    std::to_string(bc.requests),
                    std::to_string(r.engine.preemptions),
                    std::to_string(r.engine.recompute_prefill_tokens)});
        json.add("overload",
                 {{"rate_mult", mult},
                  {"rate_rps", mult * base_rate},
                  {"preemption", preempt ? "on" : "off"},
                  {"interactive_p99_ttft_s", ic.latency.p99_ttft},
                  {"standard_p99_ttft_s", sc.latency.p99_ttft},
                  {"batch_p99_e2e_s", bc.latency.p99_e2e},
                  {"interactive_goodput_rps", ic.latency.goodput_rps},
                  {"batch_completed", bc.requests},
                  {"preemptions", r.engine.preemptions},
                  {"recompute_tokens", r.engine.recompute_prefill_tokens},
                  {"agg_phr", r.engine.prompt_cache_hit_rate()}});
      }
    }
    tp.print();
    if (p99_off_2x > 0.0)
      std::printf("\nat 2x overload: interactive p99 TTFT %s ms (preempt on) "
                  "vs %s ms (off) — %.2fx\n",
                  bench::ms(p99_on_2x).c_str(), bench::ms(p99_off_2x).c_str(),
                  p99_on_2x > 0.0 ? p99_off_2x / p99_on_2x : 0.0);
  }

  // ---- 2. aging sweep at 2x overload (preemption on). ----
  {
    util::print_banner("aging sweep (2x overload, preemption on)");
    util::TablePrinter tp({"aging (s)", "int p99 TTFT (ms)",
                           "batch p99 e2e (ms)", "batch done", "preempts"});
    const auto arrivals = make_stream(s, 2.0 * base_rate, opt.seed);
    for (double aging : {15.0, 60.0, 240.0}) {
      serve::OnlineConfig cfg = s.config;
      cfg.engine.preemption = true;
      cfg.engine.priority_aging_seconds = aging;
      cfg.scheduler.aging_seconds = aging;
      const auto r = serve::run_online(s.table, s.fds, arrivals, cfg);
      const auto& ic = cls(r, llm::PriorityClass::Interactive);
      const auto& bc = cls(r, llm::PriorityClass::Batch);
      tp.add_row({util::fmt(aging, 0), bench::ms(ic.latency.p99_ttft),
                  bench::ms(bc.latency.p99_e2e), std::to_string(bc.requests),
                  std::to_string(r.engine.preemptions)});
      json.add("aging_sweep",
               {{"aging_s", aging},
                {"interactive_p99_ttft_s", ic.latency.p99_ttft},
                {"batch_p99_e2e_s", bc.latency.p99_e2e},
                {"batch_completed", bc.requests},
                {"preemptions", r.engine.preemptions}});
    }
    tp.print();
  }

  json.write();
  return 0;
}
