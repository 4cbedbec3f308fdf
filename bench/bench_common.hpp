#pragma once
// Shared helpers for the paper-reproduction bench binaries.
//
// Every bench accepts:
//   --scale <f>   fraction of the paper's dataset sizes (default 0.1)
//   --seed <s>    dataset seed (default 42)
//   --full        shorthand for --scale 1.0
//   --json <path> also write results as machine-readable JSON (the
//                 BENCH_*.json perf-trajectory format; see JsonReport)
//   --trace <path> write a Perfetto trace (benches that support it)
// Any other argument is an error (usage on stderr, exit status 2).
// Scaled runs also scale the KV pool by the same fraction so the
// data-to-cache ratio (the regime that makes reordering matter) is
// preserved; see ExecConfig::scale_kv_pool.

#include <algorithm>
#include <cerrno>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <limits>
#include <string>
#include <utility>
#include <vector>

#include "data/benchmark_suite.hpp"
#include "data/generators.hpp"
#include "query/executor.hpp"
#include "query/metrics.hpp"
#include "util/json.hpp"
#include "util/strings.hpp"
#include "util/table_printer.hpp"

namespace llmq::bench {

struct BenchOptions {
  double scale = 0.1;
  std::uint64_t seed = 42;
  std::string json_path;   // empty = no JSON output
  std::string trace_path;  // empty = tracing disabled (--trace <path>)

  std::size_t rows_for(const std::string& dataset_key) const {
    const auto full = data::paper_rows(dataset_key);
    const auto n = static_cast<std::size_t>(static_cast<double>(full) * scale);
    return std::max<std::size_t>(50, std::min(n, full));
  }

  double kv_fraction(const std::string& dataset_key) const {
    return static_cast<double>(rows_for(dataset_key)) /
           static_cast<double>(data::paper_rows(dataset_key));
  }
};

inline void print_usage(std::FILE* out, const char* prog) {
  std::fprintf(out,
               "usage: %s [--scale f] [--seed s] [--full] [--json path] "
               "[--trace path]\n",
               prog);
}

[[noreturn]] inline void usage_error(const char* prog, const char* what,
                                     const char* arg) {
  std::fprintf(stderr, "%s: %s '%s'\n", prog, what, arg);
  print_usage(stderr, prog);
  std::exit(2);
}

/// Parse the shared flags. An unknown flag, a flag missing its value, a
/// malformed number, or --scale <= 0 prints the usage line on stderr and
/// exits with status 2: a typo never runs the default config.
inline BenchOptions parse_options(int argc, char** argv) {
  BenchOptions opt;
  for (int i = 1; i < argc; ++i) {
    const char* flag = argv[i];
    const auto value = [&]() -> const char* {
      if (i + 1 >= argc) usage_error(argv[0], "missing value for", flag);
      return argv[++i];
    };
    if (std::strcmp(flag, "--scale") == 0) {
      const char* v = value();
      char* end = nullptr;
      opt.scale = std::strtod(v, &end);
      if (end == v || *end != '\0' || !std::isfinite(opt.scale) ||
          opt.scale <= 0.0)
        usage_error(argv[0], "--scale needs a number > 0, got", v);
    } else if (std::strcmp(flag, "--seed") == 0) {
      const char* v = value();
      char* end = nullptr;
      errno = 0;
      opt.seed = std::strtoull(v, &end, 10);
      if (end == v || *end != '\0' || errno == ERANGE || *v == '-')
        usage_error(argv[0], "--seed needs a non-negative integer, got", v);
    } else if (std::strcmp(flag, "--full") == 0) {
      opt.scale = 1.0;
    } else if (std::strcmp(flag, "--json") == 0) {
      opt.json_path = value();
    } else if (std::strcmp(flag, "--trace") == 0) {
      opt.trace_path = value();
    } else if (std::strcmp(flag, "--help") == 0) {
      print_usage(stdout, argv[0]);
      std::printf(
          "  --trace writes a Perfetto trace of one representative run\n"
          "  (load it at ui.perfetto.dev; <path>.jsonl gets the raw events)\n");
      std::exit(0);
    } else {
      usage_error(argv[0], "unknown flag", flag);
    }
  }
  return opt;
}

/// One key of a JSON result record: either numeric or string.
struct JsonField {
  std::string key;
  bool is_number = false;
  double num = 0.0;
  std::string str;
  JsonField(std::string k, double v)
      : key(std::move(k)), is_number(true), num(v) {}
  JsonField(std::string k, int v)
      : key(std::move(k)), is_number(true), num(v) {}
  JsonField(std::string k, std::size_t v)
      : key(std::move(k)), is_number(true), num(static_cast<double>(v)) {}
  JsonField(std::string k, std::string v)
      : key(std::move(k)), str(std::move(v)) {}
  JsonField(std::string k, const char* v) : key(std::move(k)), str(v) {}
};

/// Machine-readable bench output (--json): named sections of records,
/// written once via util::JsonWriter when the report is finalized.
///
///   { "bench": ..., "scale": ..., "seed": ..., "schema_version": ...,
///     "provenance": { build_type, sanitizer, compiler, compiler_version },
///     "sections": { "<name>": [ { k: v, ... }, ... ], ... } }
///
/// Provenance pins the toolchain a BENCH_*.json snapshot came from so a
/// golden-vs-rerun diff can tell "the code regressed" apart from "you are
/// comparing a sanitizer debug build against a release golden".
class JsonReport {
 public:
  JsonReport(std::string bench_name, const BenchOptions& opt)
      : name_(std::move(bench_name)), opt_(opt) {}

  void add(const std::string& section, std::vector<JsonField> record) {
    if (opt_.json_path.empty()) return;  // recording disabled
    for (auto& [name, records] : sections_) {
      if (name == section) {
        records.push_back(std::move(record));
        return;
      }
    }
    sections_.emplace_back(section,
                           std::vector<std::vector<JsonField>>{
                               std::move(record)});
  }

  /// Write the report if --json was given. Safe to call once at the end of
  /// main; prints the output path on success.
  void write() const {
    if (opt_.json_path.empty()) return;
    util::JsonWriter w;
    w.begin_object();
    w.key("bench").value(name_);
    w.key("scale").value(opt_.scale);
    w.key("seed").value(static_cast<std::int64_t>(opt_.seed));
    // Bump when the envelope shape (not section contents) changes.
    w.key("schema_version").value(std::int64_t{2});
    w.key("provenance").begin_object();
#ifdef NDEBUG
    w.key("build_type").value("release");
#else
    w.key("build_type").value("debug");
#endif
#if defined(LLMQ_TSAN_BUILD)
    w.key("sanitizer").value("thread");
#elif defined(LLMQ_SANITIZE_BUILD)
    w.key("sanitizer").value("address,undefined");
#else
    w.key("sanitizer").value("none");
#endif
#if defined(__clang__)
    w.key("compiler").value("clang");
    w.key("compiler_version")
        .value(std::to_string(__clang_major__) + "." +
               std::to_string(__clang_minor__) + "." +
               std::to_string(__clang_patchlevel__));
#elif defined(__GNUC__)
    w.key("compiler").value("gcc");
    w.key("compiler_version")
        .value(std::to_string(__GNUC__) + "." +
               std::to_string(__GNUC_MINOR__) + "." +
               std::to_string(__GNUC_PATCHLEVEL__));
#else
    w.key("compiler").value("unknown");
    w.key("compiler_version").value("0");
#endif
    w.end_object();
    w.key("sections").begin_object();
    for (const auto& [section, records] : sections_) {
      w.key(section).begin_array();
      for (const auto& record : records) {
        w.begin_object();
        for (const auto& f : record) {
          w.key(f.key);
          if (f.is_number)
            w.value(f.num);
          else
            w.value(f.str);
        }
        w.end_object();
      }
      w.end_array();
    }
    w.end_object();
    w.end_object();
    std::ofstream out(opt_.json_path);
    out << w.str() << "\n";
    out.flush();
    if (out.good())
      std::printf("\n[json results written to %s]\n", opt_.json_path.c_str());
    else
      std::fprintf(stderr, "\n[error: could not write json to %s]\n",
                   opt_.json_path.c_str());
  }

 private:
  std::string name_;
  BenchOptions opt_;
  // Section insertion order is preserved (vector, not map).
  std::vector<std::pair<std::string, std::vector<std::vector<JsonField>>>>
      sections_;
};

/// Min-of-K wall-clock timing with warm-up: run the workload `warmup`
/// times untimed (populate allocator pools, fault in pages, settle the
/// scheduler), then report the fastest of the timed runs. The minimum
/// — not the mean — is the estimator: wall-clock noise on a shared box is
/// strictly additive, so the fastest observation is the closest to the
/// true cost. The timed runs continue until there are at least `reps` of
/// them AND they add up to at least `kMinBudgetS` (20 ms) of wall time: a
/// microsecond-scale rep taken only five times can have every rep land
/// in the same host stall, while ~20 ms of reps spans many scheduler
/// quanta. Every wall-clock number a bench reports (trace-overhead
/// guard, threaded-fleet scaling, the microbench us/op keys) goes through
/// this one helper so the methodology cannot drift between benches.
/// Wall-clock keys are never golden-diffed exactly — they measure the
/// machine, not the simulator.
class WallClockTimer {
 public:
  /// Least total timed wall time the reps must add up to.
  static constexpr double kMinBudgetS = 0.02;

  explicit WallClockTimer(int reps = 5, int warmup = 1)
      : reps_(reps < 1 ? 1 : reps), warmup_(warmup < 0 ? 0 : warmup) {}

  /// Fastest observed wall-clock seconds of `fn()` across the timed reps.
  template <typename Fn>
  double min_seconds(Fn&& fn) const {
    return min_seconds([] {}, fn);
  }

  /// Same, with `setup()` run untimed before every rep (warm-ups
  /// included) — for workloads that consume their input, like draining a
  /// freshly built tree.
  template <typename Setup, typename Fn>
  double min_seconds(Setup&& setup, Fn&& fn) const {
    for (int i = 0; i < warmup_; ++i) {
      setup();
      fn();
    }
    double best = std::numeric_limits<double>::infinity();
    double timed = 0.0;
    for (int i = 0; i < reps_ || timed < kMinBudgetS; ++i) {
      setup();
      const auto t0 = std::chrono::steady_clock::now();
      fn();
      const auto t1 = std::chrono::steady_clock::now();
      const double s = std::chrono::duration<double>(t1 - t0).count();
      best = std::min(best, s);
      timed += s;
    }
    return best;
  }

  int reps() const { return reps_; }

 private:
  int reps_;
  int warmup_;
};

inline data::Dataset load(const std::string& key, const BenchOptions& opt) {
  data::GenOptions g;
  g.n_rows = opt.rows_for(key);
  g.seed = opt.seed;
  return data::generate_dataset(key, g);
}

inline void print_header(const char* title, const BenchOptions& opt) {
  std::printf("=== %s ===\n", title);
  std::printf("(synthetic reproduction; scale=%.3g of paper dataset sizes, "
              "seed=%llu — compare shapes/ratios, not absolute values)\n\n",
              opt.scale, static_cast<unsigned long long>(opt.seed));
}

/// Format simulated seconds for table cells.
inline std::string secs(double s) { return util::fmt(s, 1); }
inline std::string pct(double f) { return util::fmt(100.0 * f, 1) + "%"; }

}  // namespace llmq::bench
