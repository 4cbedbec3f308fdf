// perfbench: llmq's benchmark. One process runs one workload:
//
//   perfbench --workload <name> --seed <n> [--seconds <s>] [--trace 0|1]
//             [--size full|tiny] [--spans <path>]
//   perfbench --list
//
// It sets the workload up, runs it once for reference, then repeats it for
// --seconds of wall time with set-ups interleaved, and reports the fastest
// run's throughput, the fastest set-up and the peak memory of that phase.
// --trace 1 instead alternates untraced runs with span-traced runs of the
// same program and reports per-layer self times, counts and replays. Every
// run is checked (see README.md); the last line of stdout is one JSON
// object with the result.

#include <sys/resource.h>

#include <algorithm>
#include <cerrno>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <exception>
#include <iterator>
#include <map>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "spans.hpp"
#include "util/simd.hpp"
#include "workloads.hpp"

using namespace perfbench;

namespace {

using Clock = std::chrono::steady_clock;

double seconds_since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

/// The q-quantile of `v`, interpolating linearly between order statistics.
double quantile(std::vector<double> v, double q) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const double pos = q * static_cast<double>(v.size() - 1);
  const auto i = static_cast<std::size_t>(pos);
  if (i + 1 >= v.size()) return v.back();
  return v[i] + (pos - static_cast<double>(i)) * (v[i + 1] - v[i]);
}

double median(std::vector<double> v) { return quantile(std::move(v), 0.5); }

struct MetricDef {
  const char* name;
  const char* unit;
  const char* better;
  const char* layer;
};

// Printed on the last line with --trace 0 (and listed in BENCHMARK.json).
const MetricDef kEndToEnd[] = {
    {"wall_rps", "1/s", "higher", "end-to-end"},
    {"setup_s", "s", "lower", "end-to-end"},
    {"peak_rss_mb", "MB", "lower", "end-to-end"},
    {"sim_jct_s", "s", "lower", "end-to-end (simulated)"},
    {"sim_phr", "frac", "higher", "end-to-end (simulated)"},
};

// Reported on their own lines where the workload defines them.
const MetricDef kReportOnly[] = {
    {"sim_ttft_p50_s", "s", "lower", "end-to-end (simulated)"},
    {"sim_ttft_p99_s", "s", "lower", "end-to-end (simulated)"},
    {"sim_ttft_count", "count", "higher", "end-to-end (simulated)"},
    {"sim_itl_p99_s", "s", "lower", "end-to-end (simulated)"},
    {"sim_goodput_rps", "1/s", "higher", "end-to-end (simulated)"},
    {"sim_cost_usd", "usd", "lower", "end-to-end (simulated)"},
    {"failed_frac", "frac", "lower", "end-to-end"},
};

// Printed on the last line with --trace 1 (and listed in BENCHMARK.json).
// A layer's wall time enters the result as its share of the traced runs
// ("<span>_share": summed self time / summed traced wall time) beside the
// traced run's median wall time, trace.wall_s; self seconds are about
// share x wall. A layer that does not run on a workload has share 0, where
// a self time would be a constant 0 s.
const MetricDef kPerLayer[] = {
    {"data.generate_s", "s", "lower", "data"},
    {"trace.wall_s", "s", "lower", "trace"},
    {"core.plan_share", "frac", "lower", "core"},
    {"core.plan_calls", "count", "lower", "core"},
    {"core.ggr_nodes", "count", "lower", "core"},
    {"core.ggr_groups_scored", "count", "lower", "core"},
    {"core.ggr_fallbacks", "count", "lower", "core"},
    {"core.planner_phc", "phc", "higher", "core"},
    {"query.project_share", "frac", "lower", "query"},
    {"query.build_share", "frac", "lower", "query"},
    {"query.epilogue_share", "frac", "lower", "query"},
    {"query.prompt_tokens_per_req", "tok", "lower", "query"},
    {"llm.run_share", "frac", "lower", "llm"},
    {"llm.decode_steps", "count", "lower", "llm"},
    {"llm.mean_batch", "req", "higher", "llm"},
    {"llm.preemptions", "count", "lower", "llm"},
    {"llm.prefill_chunks", "count", "lower", "llm"},
    {"llm.recompute_frac", "frac", "lower", "llm"},
    {"cache.lookups", "count", "lower", "cache"},
    {"cache.hit_rate", "frac", "higher", "cache"},
    {"cache.inserted_blocks", "count", "lower", "cache"},
    {"cache.evicted_blocks", "count", "lower", "cache"},
    {"cache.demoted_blocks", "count", "lower", "cache"},
    {"cache.promoted_blocks", "count", "higher", "cache"},
    {"cache.promote_per_demote", "frac", "higher", "cache"},
    {"cache.replay_s", "s", "lower", "cache"},
    {"cache.replay_us_per_lookup", "us", "lower", "cache"},
    {"serve.feed_share", "frac", "lower", "serve"},
    {"serve.scheduler.pop_share", "frac", "lower", "serve/scheduler"},
    {"serve.scheduler.windows", "count", "lower", "serve/scheduler"},
    {"serve.scheduler.mean_window_rows", "rows", "higher", "serve/scheduler"},
    {"serve.fleet.dispatch_share", "frac", "lower", "serve/fleet"},
    {"serve.router.affinity_frac", "frac", "higher", "serve/router"},
    {"serve.router.load_imbalance", "ratio", "lower", "serve/router"},
    {"serve.fleet.step_share", "frac", "lower", "serve/fleet"},
    {"serve.fleet.steps", "count", "lower", "serve/fleet"},
    {"serve.sessions_share", "frac", "lower", "serve/sessions"},
    {"serve.sessions.turns_spawned", "count", "higher", "serve/sessions"},
    {"serve.record_share", "frac", "lower", "serve"},
    {"serve.finalize_share", "frac", "lower", "serve"},
    {"serve.query_client.run_share", "frac", "lower", "serve/query_client"},
    {"serve.query_client.dedup_hit_frac", "frac", "higher",
     "serve/query_client"},
    {"serve.query_client.effective_hit", "frac", "higher",
     "serve/query_client"},
    {"serve.threaded.vs_virtual", "ratio", "lower", "serve/threaded"},
    {"serve.threaded.match", "bool", "higher", "serve/threaded"},
    {"trace.overhead_frac", "frac", "lower", "trace"},
    {"trace.coverage_frac", "frac", "higher", "trace"},
};

// Printed on metric lines only, with --trace 1: self seconds per traced
// run, and the simulated queue delay and threaded probe time (0 where the
// layer does not run).
const MetricDef kLayerSeconds[] = {
    {"core.plan_s", "s", "lower", "core"},
    {"query.project_s", "s", "lower", "query"},
    {"query.build_s", "s", "lower", "query"},
    {"query.epilogue_s", "s", "lower", "query"},
    {"llm.run_s", "s", "lower", "llm"},
    {"serve.feed_s", "s", "lower", "serve"},
    {"serve.scheduler.pop_s", "s", "lower", "serve/scheduler"},
    {"serve.scheduler.queue_delay_p99_s", "s", "lower", "serve/scheduler"},
    {"serve.fleet.dispatch_s", "s", "lower", "serve/fleet"},
    {"serve.fleet.step_s", "s", "lower", "serve/fleet"},
    {"serve.sessions_s", "s", "lower", "serve/sessions"},
    {"serve.record_s", "s", "lower", "serve"},
    {"serve.finalize_s", "s", "lower", "serve"},
    {"serve.query_client.run_s", "s", "lower", "serve/query_client"},
    {"serve.threaded.wall_s", "s", "lower", "serve/threaded"},
};

struct Options {
  std::string workload;
  std::uint64_t seed = 0;
  bool have_seed = false;
  int seconds = 10;
  int trace = 0;
  Size size = Size::Full;
  std::string spans_path;
};

[[noreturn]] void usage_error(const std::string& msg) {
  std::fprintf(stderr,
               "perfbench: %s\n"
               "usage: perfbench --workload <name> --seed <n>"
               " [--seconds <1-600>] [--trace 0|1] [--size full|tiny]"
               " [--spans <path>]\n"
               "       perfbench --list\n",
               msg.c_str());
  std::exit(2);
}

/// Whole decimal number in [lo, hi]; anything else is an error.
std::uint64_t parse_uint(const std::string& flag, const char* text,
                         std::uint64_t lo, std::uint64_t hi) {
  if (*text == '\0' || std::strspn(text, "0123456789") != std::strlen(text))
    usage_error(flag + " expects a whole number, got '" + text + "'");
  errno = 0;
  char* end = nullptr;
  const unsigned long long v = std::strtoull(text, &end, 10);
  if (errno != 0 || v < lo || v > hi)
    usage_error(flag + " out of range: '" + std::string(text) + "'");
  return v;
}

Options parse(int argc, char** argv) {
  Options o;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (flag == "--list") {
      for (const std::string& n : workload_names())
        std::printf("%s\n", n.c_str());
      std::exit(0);
    }
    if (i + 1 >= argc) usage_error("missing value for " + flag);
    const char* value = argv[++i];
    if (flag == "--workload") {
      o.workload = value;
    } else if (flag == "--seed") {
      o.seed = parse_uint(flag, value, 0, ~0ull);
      o.have_seed = true;
    } else if (flag == "--seconds") {
      o.seconds = static_cast<int>(parse_uint(flag, value, 1, 600));
    } else if (flag == "--trace") {
      o.trace = static_cast<int>(parse_uint(flag, value, 0, 1));
    } else if (flag == "--size") {
      if (std::strcmp(value, "full") == 0)
        o.size = Size::Full;
      else if (std::strcmp(value, "tiny") == 0)
        o.size = Size::Tiny;
      else
        usage_error("--size expects full or tiny, got '" +
                    std::string(value) + "'");
    } else if (flag == "--spans") {
      o.spans_path = value;
    } else {
      usage_error("unknown flag '" + flag + "'");
    }
  }
  if (o.workload.empty()) usage_error("--workload is required");
  if (!o.have_seed) usage_error("--seed is required");
  return o;
}

struct Provenance {
  std::string compiler;
  std::string build_type = PERFBENCH_BUILD_TYPE;
  std::string sanitizer = PERFBENCH_SANITIZE;
  std::string simd;
  std::string simd_env;
  bool asserts = false;

  bool wall_valid() const {
    const bool optimized = build_type == "Release" ||
                           build_type == "RelWithDebInfo" ||
                           build_type == "MinSizeRel";
    const bool plain = sanitizer == "OFF" || sanitizer.empty();
    return optimized && plain && !asserts;
  }
};

Provenance provenance() {
  Provenance p;
#if defined(__clang__)
  p.compiler = "clang " + std::to_string(__clang_major__) + "." +
               std::to_string(__clang_minor__) + "." +
               std::to_string(__clang_patchlevel__);
#elif defined(__GNUC__)
  p.compiler = "gcc " + std::to_string(__GNUC__) + "." +
               std::to_string(__GNUC_MINOR__) + "." +
               std::to_string(__GNUC_PATCHLEVEL__);
#else
  p.compiler = "unknown";
#endif
#ifndef NDEBUG
  p.asserts = true;
#endif
  p.simd = llmq::util::simd::name(llmq::util::simd::active_isa());
  if (const char* env = std::getenv("LLMQ_SIMD")) p.simd_env = env;
  return p;
}

double peak_rss_mb() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // ru_maxrss is KiB
}

struct Tally {
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::vector<std::string> errors;

  void add(const RunOutcome& o, const SimMetrics& ref, const char* what) {
    attempted += o.submitted;
    failed += o.failed;
    for (const std::string& e : o.errors)
      errors.push_back(std::string(what) + ": " + e);
    if (!(o.sim == ref)) {
      failed += o.invocations;
      errors.push_back(std::string(what) +
                       ": simulated metrics differ from the reference run");
    }
  }
  void add(const CheckResult& c) {
    attempted += c.attempted;
    failed += c.failed;
    errors.insert(errors.end(), c.errors.begin(), c.errors.end());
    for (const std::string& p : c.passed)
      std::printf("check ok: %s\n", p.c_str());
  }
};

constexpr std::size_t kMinSetups = 7;
constexpr double kSetupShare = 0.15;

void print_metric(const MetricDef& m, double v) {
  std::printf("metric %-36s %.17g %s (%s is better; layer %s)\n", m.name, v,
              m.unit, m.better, m.layer);
}

int run_benchmark(const Options& opt) {
  std::unique_ptr<Workload> w = make_workload(opt.workload);
  if (!w) usage_error("unknown workload '" + opt.workload + "' (see --list)");

  const Provenance prov = provenance();
  std::printf("perfbench workload=%s seed=%llu seconds=%d trace=%d size=%s\n",
              opt.workload.c_str(), static_cast<unsigned long long>(opt.seed),
              opt.seconds, opt.trace, opt.size == Size::Tiny ? "tiny" : "full");
  std::printf(
      "provenance nproc=%u compiler=\"%s\" build_type=%s sanitizer=%s "
      "asserts=%s simd=%s LLMQ_SIMD=\"%s\" wall_metrics=%s\n",
      std::thread::hardware_concurrency(), prov.compiler.c_str(),
      prov.build_type.c_str(), prov.sanitizer.c_str(),
      prov.asserts ? "on" : "off", prov.simd.c_str(), prov.simd_env.c_str(),
      prov.wall_valid() ? "valid" : "INVALID");

  // ---- Set-up. It is repeated here and again between the timed runs
  // (see below); every repeat rebuilds the same inputs from the seed. ----
  SpanRecorder setup_rec;
  std::vector<double> setup_walls;
  const auto set_up = [&] {
    const auto t0 = Clock::now();
    w->setup(opt.seed, opt.size, opt.trace ? &setup_rec : nullptr);
    setup_walls.push_back(seconds_since(t0));
    return setup_walls.back();
  };
  while (setup_walls.size() < kMinSetups) set_up();
  std::printf("inputs: %s\n", w->describe().c_str());

  Tally tally;
  const RunOutcome ref = w->run();
  tally.add(ref, ref.sim, "reference run");

  // ---- Measured phase: --seconds of runs, with set-ups interleaved so that
  // they take kSetupShare of the phase. Host speed changes over seconds, so
  // set-ups and runs sample the same stretch of host time. ----
  std::vector<double> walls, rps, traced_walls;
  SpanRecorder rec;
  std::map<std::string, double> layer_self_s;
  double top_level_s = 0.0;
  double setup_s_in_phase = 0.0;
  const auto phase_start = Clock::now();
  const std::size_t min_reps = opt.trace ? 2 : 3;
  while (seconds_since(phase_start) - setup_s_in_phase < opt.seconds ||
         walls.size() < min_reps) {
    while (setup_s_in_phase < kSetupShare * seconds_since(phase_start))
      setup_s_in_phase += set_up();
    auto t0 = Clock::now();
    const RunOutcome u = w->run();
    const double wall = seconds_since(t0);
    walls.push_back(wall);
    rps.push_back(static_cast<double>(u.invocations) / wall);
    tally.add(u, ref.sim, "timed run");
    if (!opt.trace) continue;

    rec.clear();
    t0 = Clock::now();
    const RunOutcome t = w->run_composed(&rec);
    traced_walls.push_back(seconds_since(t0));
    tally.add(t, ref.sim, "traced run");
    const SelfTimes st = self_times(rec.spans());
    for (const auto& [name, s] : st.self_s) layer_self_s[name] += s;
    top_level_s += st.top_level_s;
  }
  const double wall_median = median(walls);
  // The workload's own peak, before the untimed checks allocate theirs.
  const double peak_mb = peak_rss_mb();

  // ---- Untimed checks. ----
  perfbench::Values layer;
  if (!opt.trace) {
    // The composed program the traced run measures must match run().
    tally.add(w->run_composed(nullptr), ref.sim, "composed run");
  } else {
    tally.add(w->run_capture(layer), ref.sim, "capture run");
  }
  tally.add(w->checks(ref, wall_median, layer));
  if (!prov.wall_valid()) {
    tally.errors.push_back("wall metrics from a " + prov.build_type +
                           " build (sanitizer " + prov.sanitizer +
                           ") are invalid and never compared");
  }

  // ---- Report. ----
  perfbench::Values e2e;
  // Host interference only ever slows a run down, so the fastest run and
  // the fastest set-up are the steadiest estimates of the program's speed.
  e2e["wall_rps"] = quantile(rps, 1.0);
  e2e["setup_s"] = quantile(setup_walls, 0.0);
  e2e["peak_rss_mb"] = peak_mb;
  for (const auto& [name, v] : w->sim_report(ref.sim)) e2e[name] = v;
  e2e["failed_frac"] =
      tally.attempted ? static_cast<double>(tally.failed) /
                            static_cast<double>(tally.attempted)
                      : 1.0;
  std::printf("set-ups: %zu, wall min %.6f / lower quartile %.6f / median "
              "%.6f s\n",
              setup_walls.size(), quantile(setup_walls, 0.0),
              quantile(setup_walls, 0.25), median(setup_walls));
  std::printf("timed runs: %zu, wall min %.6f / median %.6f / max %.6f s, "
              "%llu invocations per run\n",
              walls.size(), quantile(walls, 0.0), wall_median,
              quantile(walls, 1.0),
              static_cast<unsigned long long>(ref.invocations));
  for (const MetricDef& m : kEndToEnd) print_metric(m, e2e.at(m.name));
  for (const MetricDef& m : kReportOnly)
    if (e2e.count(m.name)) print_metric(m, e2e.at(m.name));

  if (opt.trace) {
    const double reps = static_cast<double>(traced_walls.size());
    const SelfTimes setup_self = self_times(setup_rec.spans());
    layer["data.generate_s"] = setup_self.self_s.count("data.generate")
                                   ? setup_self.self_s.at("data.generate") /
                                         static_cast<double>(setup_walls.size())
                                   : 0.0;
    double traced_total = 0.0;
    for (double t : traced_walls) traced_total += t;
    for (const auto& [name, s] : layer_self_s) {
      layer[name + "_s"] = s / reps;
      layer[name + "_share"] = s / traced_total;
    }
    layer["trace.wall_s"] = median(traced_walls);
    layer["trace.overhead_frac"] = median(traced_walls) / wall_median - 1.0;
    layer["trace.coverage_frac"] = top_level_s / traced_total;
    std::printf("traced runs: %zu, median wall %.6f s\n", traced_walls.size(),
                median(traced_walls));
    for (const MetricDef& m : kPerLayer) print_metric(m, layer[m.name]);
    for (const MetricDef& m : kLayerSeconds) print_metric(m, layer[m.name]);
    if (layer["trace.coverage_frac"] < 0.9)
      tally.errors.push_back(
          "top-level spans cover less than 90% of traced wall time");
    if (!opt.spans_path.empty()) {
      if (rec.dump_csv(opt.spans_path))
        std::printf("spans of the last traced run written to %s\n",
                    opt.spans_path.c_str());
      else
        tally.errors.push_back("could not write spans to " + opt.spans_path);
    }
  }

  // ---- Result line. ----
  const MetricDef* defs = opt.trace ? kPerLayer : kEndToEnd;
  const std::size_t n_defs =
      opt.trace ? std::size(kPerLayer) : std::size(kEndToEnd);
  const perfbench::Values& values = opt.trace ? layer : e2e;
  for (std::size_t i = 0; i < n_defs; ++i) {
    const auto it = values.find(defs[i].name);
    if (it == values.end() || !std::isfinite(it->second))
      tally.errors.push_back(std::string("metric ") + defs[i].name +
                             " is missing or not finite");
  }
  for (const std::string& e : tally.errors)
    std::printf("FAILED: %s\n", e.c_str());
  const bool correct = tally.errors.empty() && tally.failed == 0;
  std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
              "\"metrics\": {",
              correct ? "true" : "false",
              static_cast<unsigned long long>(tally.attempted),
              static_cast<unsigned long long>(tally.failed));
  for (std::size_t i = 0; i < n_defs; ++i) {
    const auto it = values.find(defs[i].name);
    const double v = it == values.end() ? 0.0 : it->second;
    std::printf("%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}", i ? ", " : "",
                defs[i].name, std::isfinite(v) ? v : 0.0, defs[i].unit);
  }
  std::printf("}}\n");
  return correct ? 0 : 1;
}

}  // namespace

int main(int argc, char** argv) {
  const Options opt = parse(argc, argv);
  try {
    return run_benchmark(opt);
  } catch (const std::exception& e) {
    std::fflush(stdout);
    std::fprintf(stderr, "perfbench: %s\n", e.what());
    return 1;
  }
}
