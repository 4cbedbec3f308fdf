// Online serving — cache-aware windowed reordering under streaming load.
//
// The paper's evaluation reorders a fully known batch; this bench serves
// the same table as a *stream* and asks how much of the batch-mode
// prompt-cache win survives online, and what it costs in latency:
//
//   1. arrival rate × policy: FIFO vs windowed-GGR vs tenant-partitioned
//      GGR on the same multi-tenant Poisson trace;
//   2. window deadline sweep: buffering longer raises the hit rate and
//      the time-to-first-token together — the serving tradeoff the
//      windowed extension (core/windowed.hpp) predicts offline;
//   3. burstiness: the same mean rate delivered smoothly vs in bursts.
//
// Use --json <path> for machine-readable results.

#include <chrono>

#include "bench_common.hpp"
#include "obs/export.hpp"
#include "serve/online.hpp"

using namespace llmq;

namespace {

serve::OnlineRunResult run_policy(const bench::ServeFixture& s,
                                  const std::vector<serve::Arrival>& arrivals,
                                  serve::Policy policy,
                                  std::size_t window_rows, double max_wait) {
  serve::OnlineConfig cfg = s.config;
  cfg.scheduler.policy = policy;
  cfg.scheduler.window_rows = window_rows;
  cfg.scheduler.max_wait_seconds = max_wait;
  return serve::run_online(s.table, s.fds, arrivals, cfg);
}

}  // namespace

int main(int argc, char** argv) {
  const auto opt = bench::parse_options(argc, argv, bench::kJsonAndTrace);
  bench::print_header(
      "Online serving — streaming scheduler, cache-aware windowed reordering",
      opt);
  bench::JsonReport json("bench_serving_online", opt);

  bench::ServeFixture s = bench::movies_filter_fixture(opt, 1000);
  s.config.ttft_slo_seconds = 30.0;
  const std::size_t n = s.table.num_rows();
  std::printf("serving %zu rows of movies-filter as a request stream\n\n", n);

  const serve::Policy policies[] = {serve::Policy::Fifo,
                                    serve::Policy::WindowedGgr,
                                    serve::Policy::TenantGgr};

  // ---- 1. arrival rate × policy (shared trace per rate). ----
  {
    util::print_banner(
        "arrival rate x policy (Poisson, 4 tenants, Zipf 1.0, window 64, "
        "deadline 8s)");
    util::TablePrinter tp({"rate (r/s)", "policy", "PHR", "p50 TTFT (ms)",
                           "p99 TTFT (ms)", "queue (ms)", "goodput (r/s)",
                           "windows"});
    for (double rate : {16.0, 48.0}) {
      serve::WorkloadOptions w;
      w.arrival_rate = rate;
      w.n_tenants = 4;
      w.tenant_skew = 1.0;
      w.seed = opt.seed;
      const auto arrivals = serve::generate_arrivals(n, w);
      for (serve::Policy p : policies) {
        const auto r = run_policy(s, arrivals, p, 64, 8.0);
        tp.add_row({util::fmt(rate, 0), serve::to_string(p),
                    bench::pct(r.engine.prompt_cache_hit_rate()),
                    bench::ms(r.latency.p50_ttft),
                    bench::ms(r.latency.p99_ttft),
                    bench::ms(r.latency.mean_queue_delay),
                    util::fmt(r.latency.goodput_rps, 1),
                    std::to_string(r.windows)});
        json.add("rate_policy",
                 {{"rate", rate},
                  {"policy", serve::to_string(p)},
                  {"phr", r.engine.prompt_cache_hit_rate()},
                  {"p50_ttft_s", r.latency.p50_ttft},
                  {"p99_ttft_s", r.latency.p99_ttft},
                  {"mean_queue_delay_s", r.latency.mean_queue_delay},
                  {"goodput_rps", r.latency.goodput_rps},
                  {"windows", r.windows},
                  {"phc", r.phc}});
      }
    }
    tp.print();
  }

  // ---- 2. window deadline sweep (hit rate vs latency). ----
  {
    util::print_banner(
        "window deadline sweep (16 r/s, single tenant, window cap 256)");
    util::TablePrinter tp({"deadline (s)", "policy", "PHR", "p50 TTFT (ms)",
                           "p99 TTFT (ms)", "mean window"});
    serve::WorkloadOptions w;
    w.arrival_rate = 16.0;
    w.seed = opt.seed;
    const auto arrivals = serve::generate_arrivals(n, w);
    for (double deadline : {0.25, 1.0, 4.0, 16.0}) {
      for (serve::Policy p :
           {serve::Policy::Fifo, serve::Policy::WindowedGgr}) {
        const auto r = run_policy(s, arrivals, p, 256, deadline);
        const double mean_window =
            r.windows ? static_cast<double>(r.requests.size()) /
                            static_cast<double>(r.windows)
                      : 0.0;
        tp.add_row({util::fmt(deadline, 2), serve::to_string(p),
                    bench::pct(r.engine.prompt_cache_hit_rate()),
                    bench::ms(r.latency.p50_ttft),
                    bench::ms(r.latency.p99_ttft), util::fmt(mean_window, 1)});
        json.add("deadline_sweep",
                 {{"deadline_s", deadline},
                  {"policy", serve::to_string(p)},
                  {"phr", r.engine.prompt_cache_hit_rate()},
                  {"p50_ttft_s", r.latency.p50_ttft},
                  {"p99_ttft_s", r.latency.p99_ttft},
                  {"mean_window_rows", mean_window}});
      }
    }
    tp.print();
  }

  // ---- 3. burstiness at a fixed mean rate. ----
  {
    util::print_banner(
        "burstiness (mean 16 r/s, windowed-GGR, window 64, deadline 2s)");
    util::TablePrinter tp({"process", "PHR", "p50 TTFT (ms)", "p99 TTFT (ms)",
                           "peak batch"});
    for (const bool bursty : {false, true}) {
      serve::WorkloadOptions w;
      w.process = bursty ? serve::ArrivalProcess::Bursty
                         : serve::ArrivalProcess::Poisson;
      w.arrival_rate = 16.0;
      w.burst_multiplier = 4.0;
      w.burst_fraction = 0.2;
      w.cycle_seconds = 4.0;
      w.seed = opt.seed;
      const auto arrivals = serve::generate_arrivals(n, w);
      const auto r =
          run_policy(s, arrivals, serve::Policy::WindowedGgr, 64, 2.0);
      tp.add_row({bursty ? "bursty (4x/20%)" : "poisson",
                  bench::pct(r.engine.prompt_cache_hit_rate()),
                  bench::ms(r.latency.p50_ttft),
                  bench::ms(r.latency.p99_ttft),
                  std::to_string(r.engine.peak_batch_size)});
      json.add("burstiness",
               {{"process", bursty ? "bursty" : "poisson"},
                {"phr", r.engine.prompt_cache_hit_rate()},
                {"p50_ttft_s", r.latency.p50_ttft},
                {"p99_ttft_s", r.latency.p99_ttft},
                {"peak_batch", r.engine.peak_batch_size}});
    }
    tp.print();
  }

  // ---- 4. tracing: representative traced run + overhead guard. ----
  {
    serve::WorkloadOptions w;
    w.arrival_rate = 16.0;
    w.n_tenants = 4;
    w.tenant_skew = 1.0;
    w.seed = opt.seed;
    const auto arrivals = serve::generate_arrivals(n, w);
    serve::OnlineConfig cfg = s.config;
    cfg.scheduler.policy = serve::Policy::WindowedGgr;
    cfg.scheduler.window_rows = 64;
    cfg.scheduler.max_wait_seconds = 2.0;

    if (!opt.trace_path.empty()) {
      obs::TraceLog log;
      obs::TimeSeries ts;
      serve::OnlineConfig traced = cfg;
      traced.trace.sink = &log;
      traced.trace.timeseries = &ts;
      (void)serve::run_online(s.table, s.fds, arrivals, traced);
      bench::write_trace(opt, log, &ts);
      std::printf("\n[trace: %zu events -> %s (+ %s.jsonl)]\n", log.size(),
                  opt.trace_path.c_str(), opt.trace_path.c_str());
    }

    // Overhead guard: wall-clock the same run with tracing disabled (null
    // sink — one pointer test per emission site) and enabled. Min-of-5
    // after a warm-up (WallClockTimer) filters scheduler/allocator noise;
    // CI asserts the disabled path is not slower than the traced one
    // beyond noise. Wall-clock keys only — golden diffs must never
    // compare them.
    const bench::WallClockTimer timer(/*reps=*/5, /*warmup=*/1);
    const auto wall_min = [&](bool traced) {
      return timer.min_seconds([&] {
        obs::TraceLog log;
        serve::OnlineConfig c = cfg;
        if (traced) c.trace.sink = &log;
        (void)serve::run_online(s.table, s.fds, arrivals, c);
      });
    };
    const double off = wall_min(false);
    const double on = wall_min(true);
    const double frac = off > 0.0 ? on / off - 1.0 : 0.0;
    std::printf("\ntrace overhead: %.1f ms untraced vs %.1f ms traced "
                "(%+.1f%%)\n",
                1000.0 * off, 1000.0 * on, 100.0 * frac);
    json.add("trace_overhead", {{"wall_s_no_trace", off},
                                {"wall_s_traced", on},
                                {"overhead_frac", frac}});
  }

  json.write();
  return 0;
}
