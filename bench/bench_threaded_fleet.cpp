// Threaded fleet — wall-clock scaling of the real-threads runtime.
//
// Every other bench in this repo reports *simulated* seconds: the
// virtual clock is the oracle and wall time is irrelevant. This bench is
// the one place wall time is the subject. ThreadedFleet steps replicas
// on a pool of at most hardware_concurrency - 1 worker threads (at most
// one per replica) and is property-pinned to produce bit-identical
// simulated results to the single-threaded virtual-clock driver
// (tests/threaded/), so the question left is purely operational: how
// much faster does the simulation itself run when replicas execute on
// real threads?
//
//   replicas {1,2,4,8}: min-of-K wall clock of the virtual-clock driver
//   vs the threaded runtime on the same stream, the threaded runtime's
//   real requests/s and tokens/s, and a determinism cross-check of the
//   simulated headline numbers between the two.
//
// Scaling expectations depend on the machine: on a multi-core box the
// 4-replica threaded run should beat the 1-replica threaded run on wall
// clock (the CI assertion); on a single-core container the threads
// serialize and the barrier overhead is the honest result. The host's
// core count is recorded alongside the numbers for exactly that reason.
// Wall-clock keys are never golden-diffed.
//
// Use --json <path> for machine-readable results.

#include <thread>

#include "bench_common.hpp"
#include "serve/online.hpp"
#include "serve/threaded_fleet.hpp"

using namespace llmq;

namespace {

struct ServeSetup {
  table::Table table;
  table::FdSet fds;
  serve::OnlineConfig config;
};

ServeSetup make_setup(const bench::BenchOptions& opt, std::size_t row_cap) {
  const char* key = "movies";
  data::GenOptions g;
  g.n_rows = std::min<std::size_t>(opt.rows_for(key), row_cap);
  g.seed = opt.seed;
  data::Dataset d = data::generate_dataset(key, g);
  const data::QuerySpec& spec = data::query_by_id("movies-filter");

  ServeSetup s;
  s.table = spec.stage1.fields.empty() ? d.table
                                       : d.table.project(spec.stage1.fields);
  s.fds = d.fds;
  s.config.prompt.system_prompt = spec.system_prompt;
  s.config.prompt.user_prompt = spec.stage1.user_prompt;
  s.config.avg_output_tokens = spec.stage1.avg_output_tokens;
  s.config.ttft_slo_seconds = 30.0;
  s.config.scheduler.policy = serve::Policy::TenantGgr;
  s.config.scheduler.window_rows = 64;
  s.config.scheduler.max_wait_seconds = 4.0;
  s.config.router = serve::RouterPolicy::PrefixAffinity;
  return s;
}

/// Simulated headline numbers match between the two runtimes (the full
/// bit-identity lives in tests/threaded/; this is the bench's tripwire).
bool determinism_match(const serve::OnlineRunResult& a,
                       const serve::OnlineRunResult& b) {
  return a.requests.size() == b.requests.size() &&
         a.engine.prompt_tokens == b.engine.prompt_tokens &&
         a.engine.cached_prompt_tokens == b.engine.cached_prompt_tokens &&
         a.engine.output_tokens == b.engine.output_tokens &&
         a.engine.preemptions == b.engine.preemptions &&
         a.phc == b.phc && a.latency.p99_ttft == b.latency.p99_ttft &&
         a.load_imbalance == b.load_imbalance;
}

std::string ms(double seconds) { return util::fmt(1000.0 * seconds, 0); }

}  // namespace

int main(int argc, char** argv) {
  const auto opt = bench::parse_options(argc, argv);
  bench::print_header("Threaded fleet — wall-clock scaling vs replica count",
                      opt);
  bench::JsonReport json("bench_threaded_fleet", opt);

  const ServeSetup s = make_setup(opt, 1000);
  const std::size_t n = s.table.num_rows();
  const double kvf = static_cast<double>(n) /
                     static_cast<double>(data::paper_rows("movies"));
  const unsigned cores = std::thread::hardware_concurrency();

  serve::WorkloadOptions w;
  w.n_tenants = 8;
  w.tenant_skew = 1.0;
  w.n_requests = 2 * n;  // repeat traffic: prefixes recur across the stream
  w.arrival_rate = 48.0;
  w.seed = opt.seed;
  const auto arrivals = serve::generate_arrivals(n, w);
  std::printf("serving %zu requests over %zu movies rows on %u hardware "
              "threads (PrefixAffinity, Tenant-GGR windows, fixed fleet KV "
              "budget)\n\n",
              w.n_requests, n, cores);

  util::print_banner("wall-clock: virtual-clock driver vs threaded runtime");
  util::TablePrinter tp({"replicas", "virtual (ms)", "threaded (ms)",
                         "speedup vs 1", "real r/s", "real tok/s", "agg PHR",
                         "p99 TTFT (ms)", "identical"});

  const bench::WallClockTimer timer(/*reps=*/3, /*warmup=*/1);
  double threaded_1rep_s = 0.0;
  for (const std::size_t reps : {1u, 2u, 4u, 8u}) {
    serve::OnlineConfig cfg = s.config;
    cfg.n_replicas = reps;
    // Fixed fleet budget: per-replica pool = single-engine pool / replicas.
    cfg.scale_kv_pool(kvf / static_cast<double>(reps));

    serve::OnlineRunResult virt, thr;
    const double virt_s = timer.min_seconds(
        [&] { virt = serve::run_online(s.table, s.fds, arrivals, cfg); });
    const double thr_s = timer.min_seconds([&] {
      thr = serve::run_online_threaded(s.table, s.fds, arrivals, cfg);
    });
    if (reps == 1) threaded_1rep_s = thr_s;

    const bool identical = determinism_match(virt, thr);
    const double speedup = thr_s > 0.0 ? threaded_1rep_s / thr_s : 0.0;
    const double rps =
        thr_s > 0.0 ? static_cast<double>(thr.requests.size()) / thr_s : 0.0;
    const double tps =
        thr_s > 0.0 ? static_cast<double>(thr.engine.prompt_tokens +
                                          thr.engine.output_tokens) /
                          thr_s
                    : 0.0;
    tp.add_row({std::to_string(reps), ms(virt_s), ms(thr_s),
                util::fmt(speedup, 2), util::fmt(rps, 0), util::fmt(tps, 0),
                bench::pct(thr.engine.prompt_cache_hit_rate()),
                ms(thr.latency.p99_ttft), identical ? "yes" : "NO"});
    json.add("threaded_scaling",
             {{"replicas", reps},
              {"hardware_threads", static_cast<std::size_t>(cores)},
              {"wall_s_virtual", virt_s},
              {"wall_s_threaded", thr_s},
              {"speedup_vs_1", speedup},
              {"wall_rps", rps},
              {"wall_tps", tps},
              {"agg_phr", thr.engine.prompt_cache_hit_rate()},
              {"p99_ttft_s", thr.latency.p99_ttft},
              {"load_imbalance", thr.load_imbalance},
              {"determinism_match", identical ? 1 : 0}});
    if (!identical) {
      std::fprintf(stderr,
                   "ERROR: threaded run diverged from the virtual-clock "
                   "oracle at %zu replicas\n",
                   reps);
      json.write();
      return 1;
    }
  }
  tp.print();

  std::printf(
      "\n(threaded beats virtual only when replicas can actually run in\n"
      " parallel — on %u hardware threads expect wins up to ~%u replicas;\n"
      " simulated metrics above are bit-identical either way)\n",
      cores, cores);

  json.write();
  return 0;
}
