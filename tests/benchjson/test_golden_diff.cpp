// Golden bench snapshot diffs.
//
// BENCH_*.json at the repo root are committed snapshots of small-scale
// bench runs (the perf-trajectory anchors). This suite re-runs each bench
// at the snapshot's own scale/seed and diffs the *virtual-time* headline
// numbers against the snapshot within tolerance bands: the simulation is
// a pure function of (seed, config), so a drift here is a real behavior
// change — a scheduler tweak moving p99 TTFT, a cache change moving PHR —
// that must be acknowledged by regenerating the snapshot, not discovered
// by downstream tooling. Wall-clock keys measure the host, not the code:
// virtual-time benches never compare them at all, and bench_micro's
// wall-clock keys (same-run ratios, plus two end-to-end us/op values in a
// coarse catastrophe band) are compared only between release
// non-sanitizer builds (provenance gate).

#include <gtest/gtest.h>

#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "util/json.hpp"

#ifndef LLMQ_BIN_DIR
#define LLMQ_BIN_DIR "."
#endif
#ifndef LLMQ_REPO_ROOT
#define LLMQ_REPO_ROOT "."
#endif

namespace llmq {
namespace {

/// Which drift fails a key. A same-run ratio fails only in the direction a
/// regression moves it: a faster dispatched kernel is not a regression.
enum class Fails { Either, Below, Above };

struct DiffKey {
  const char* section;
  const char* key;
  bool relative;  // tolerance as a fraction of the golden value
  double tol;
  // Wall-clock keys (us/op, speedups) measure the host, not the
  // simulation: they are only compared when BOTH the golden and the rerun
  // were produced by a release, sanitizer-free build — a Debug or
  // ASan/TSan rerun would fail any honest band. Virtual-time keys never
  // set this.
  bool wallclock = false;
  Fails fails = Fails::Either;
  // Compare the geometric mean of the key over the section's records, not
  // each record: one record's host noise averages out, while a change that
  // moves every record (a slower kernel) moves the mean as much.
  bool geomean = false;
};

struct GoldenSpec {
  const char* binary;
  const char* golden;  // filename at the repo root
  std::vector<DiffKey> keys;
};

const std::vector<GoldenSpec>& golden_specs() {
  // PHR compares absolutely (it is already a fraction); latency tails
  // relatively, floored at 1 ms so near-zero arms don't demand exactness.
  static const std::vector<GoldenSpec> specs = {
      // The paper's headline table: PHR of the original and GGR orderings
      // per dataset. Exact, not banded — the serving benches' 0.02 bands
      // would let a tokenizer or core/ggr.cpp change move it unnoticed.
      {"bench_table2_phr",
       "BENCH_table2_phr.json",
       {{"phr", "rows", false, 0.0},
        {"phr", "original_phr", false, 0.0},
        {"phr", "ggr_phr", false, 0.0}}},
      {"bench_serving_online",
       "BENCH_serving_online.json",
       {{"rate_policy", "phr", false, 0.02},
        {"rate_policy", "p99_ttft_s", true, 0.10},
        {"rate_policy", "goodput_rps", true, 0.10},
        {"deadline_sweep", "phr", false, 0.02},
        {"deadline_sweep", "p99_ttft_s", true, 0.10},
        {"burstiness", "phr", false, 0.02}}},
      {"bench_chunked_prefill",
       "BENCH_chunked_prefill.json",
       {{"chunk_mix_sweep", "interactive_p99_ttft_s", true, 0.10},
        {"chunk_mix_sweep", "interactive_p99_itl_s", true, 0.10},
        {"chunk_mix_sweep", "goodput_rps", true, 0.10}}},
      {"bench_serving_router",
       "BENCH_serving_router.json",
       {{"replicas_policy", "agg_phr", false, 0.02},
        {"replicas_policy", "p50_ttft_s", true, 0.10},
        {"replicas_policy", "p99_ttft_s", true, 0.10},
        {"replicas_policy", "goodput_rps", true, 0.10},
        {"replicas_policy", "load_imbalance", true, 0.10},
        {"replicas_policy", "phc", true, 0.05},
        {"policy_rate", "agg_phr", false, 0.02},
        {"policy_rate", "p99_ttft_s", true, 0.10},
        {"policy_rate", "goodput_rps", true, 0.10}}},
      {"bench_priority_preemption",
       "BENCH_priority_preemption.json",
       {{"overload", "agg_phr", false, 0.02},
        {"overload", "interactive_p99_ttft_s", true, 0.10},
        {"overload", "standard_p99_ttft_s", true, 0.10},
        {"overload", "batch_p99_e2e_s", true, 0.10},
        {"overload", "interactive_goodput_rps", true, 0.10},
        {"overload", "batch_completed", true, 0.10},
        {"overload", "preemptions", true, 0.10},
        {"overload", "recompute_tokens", true, 0.10},
        {"aging_sweep", "interactive_p99_ttft_s", true, 0.10},
        {"aging_sweep", "batch_p99_e2e_s", true, 0.10},
        {"aging_sweep", "batch_completed", true, 0.10},
        {"aging_sweep", "preemptions", true, 0.10}}},
      {"bench_threaded_fleet",
       "BENCH_threaded_fleet.json",
       {{"threaded_scaling", "agg_phr", false, 0.02},
        {"threaded_scaling", "p99_ttft_s", true, 0.10},
        {"threaded_scaling", "load_imbalance", true, 0.10},
        // The threaded run must STILL match the virtual-clock oracle —
        // exact, not banded (wall_s_* keys measure the host and are
        // deliberately not compared).
        {"threaded_scaling", "determinism_match", false, 0.0}}},
      {"bench_concurrent_queries",
       "BENCH_concurrent_queries.json",
       {{"queries_router", "agg_phr", false, 0.02},
        {"queries_router", "effective_hit_fraction", false, 0.02},
        {"queries_router", "dedup_hits", false, 0.0},
        {"queries_router", "makespan_s", true, 0.10},
        {"queries_router", "speedup_vs_serial", true, 0.10},
        {"queries_router", "p99_ttft_s", true, 0.10},
        {"queries_router", "load_imbalance", true, 0.10}}},
      // Sessions / agents / length-aware scheduling. Conservation counts
      // (requests, turn spawns, audit verdict, completions) are exact;
      // PHR and tails use the standard bands; predictor means are exact
      // up to the absolute band (pure EWMA replay, no simulation noise).
      {"bench_scenarios",
       "BENCH_scenarios.json",
       {{"session_turns", "agg_phr", false, 0.02},
        {"session_turns", "requests", false, 0.0},
        {"session_turns", "windows", true, 0.10},
        {"session_turns", "p99_ttft_s", true, 0.10},
        {"agentic", "requests", false, 0.0},
        {"agentic", "turn_spawns", false, 0.0},
        {"agentic", "audit_ok", false, 0.0},
        {"agentic", "agg_phr", false, 0.02},
        {"spjf_overload", "completions", false, 0.0},
        {"spjf_overload", "short_p99_ttft_s", true, 0.10},
        {"spjf_overload", "agg_phr", false, 0.02},
        {"penalty_ablation", "mean_predicted_tokens", false, 0.01}}},
      // Hot-path microbench: the deterministic outputs (hash fingerprints,
      // cache hit/insert/evict counts, token-stream fingerprints, the
      // zero-steady-state-allocation audit) must match the snapshot
      // exactly. Wall-clock keys are compared only between release
      // non-sanitizer builds. The kernel and fan-out gates are ratios of
      // two timings from one run: a shared host ran the same kernels
      // 1.3-2.5x slower than the snapshot's for whole runs, which moved
      // every absolute us/op key, while a real regression moves the ratio.
      // A kernel's speedup, as a geometric mean over the four lengths,
      // may not fall below 0.65 of the snapshot's: one shared VM measured
      // 0.74-1.29 of it over 40 runs (a single length alone dipped to
      // 0.46), and a 2x slower dispatched kernel halves it. A hashed child
      // lookup may not cost more than twice its snapshot multiple of the
      // fan-out-4 scan (a lost child index is 10x+). The two end-to-end
      // cache timings keep their 2x band.
      {"bench_micro",
       "BENCH_micro.json",
       {{"token_ops", "hash_check", false, 0.0},
        {"token_ops", "lcp_speedup", true, 0.35, true, Fails::Below, true},
        {"token_ops", "hash_speedup", true, 0.35, true, Fails::Below, true},
        {"radix_fanout", "check", false, 0.0},
        {"radix_fanout", "hit_vs_fanout4", true, 1.0, true, Fails::Above},
        {"radix_stream", "hit_tokens", false, 0.0},
        {"radix_stream", "inserted_blocks", false, 0.0},
        {"radix_stream", "us_per_request", true, 1.0, true},
        {"evict_batch", "evicted", false, 0.0},
        {"evict_batch", "us_per_block", true, 1.0, true},
        {"tokenize", "rows", false, 0.0},
        {"tokenize", "tokens", false, 0.0},
        {"tokenize", "fingerprint", false, 0.0},
        {"alloc_steadystate", "steady_allocs", false, 0.0},
        {"alloc_steadystate", "node_slots_delta", false, 0.0},
        {"alloc_steadystate", "steady_allocs_tiers2", false, 0.0},
        {"alloc_steadystate", "steady_allocs_tiers3", false, 0.0},
        {"alloc_steadystate", "steady_allocs_striped_flat", false, 0.0},
        {"alloc_steadystate", "steady_allocs_striped_tiered", false, 0.0}}},
      // Tier hierarchy + elasticity. PHR and tails use the standard
      // bands; the headline tiered-vs-flat ordering is re-asserted by the
      // bench itself (it exits nonzero on violation), so the golden pins
      // the magnitudes. Audit verdicts and the threaded-vs-oracle match
      // are exact — a band on a boolean hides a broken invariant.
      {"bench_tiered_cache",
       "BENCH_tiered_cache.json",
       {{"tiers_vs_flat", "agg_phr", false, 0.02},
        {"tiers_vs_flat", "interactive_p99_ttft_s", true, 0.10},
        {"tiers_vs_flat", "goodput_rps", true, 0.10},
        {"tiers_vs_flat", "promote_seconds", true, 0.10},
        {"split_sweep", "agg_phr", false, 0.02},
        {"split_sweep", "interactive_p99_ttft_s", true, 0.10},
        {"elasticity", "agg_phr", false, 0.02},
        {"elasticity", "replica_spawns", false, 0.0},
        {"elasticity", "prefix_migrations", false, 0.0},
        {"elasticity", "audit_ok", false, 0.0},
        {"determinism", "determinism_match", false, 0.0}}},
  };
  return specs;
}

bool file_exists(const std::string& path) {
  std::ifstream f(path);
  return f.good();
}

/// True when a report's provenance says "release build, no sanitizer" —
/// the only configuration whose wall-clock numbers are comparable.
bool timing_comparable(const util::JsonValue& doc) {
  const util::JsonValue* prov = doc.find("provenance");
  if (prov == nullptr) return false;
  const util::JsonValue* build = prov->find("build_type");
  const util::JsonValue* san = prov->find("sanitizer");
  return build != nullptr && san != nullptr &&
         build->as_string() == "release" && san->as_string() == "none";
}

std::optional<util::JsonValue> parse_file(const std::string& path) {
  std::ifstream in(path);
  if (!in.good()) return std::nullopt;
  std::stringstream buf;
  buf << in.rdbuf();
  return util::json_parse(buf.str());
}

class BenchGoldenDiff : public ::testing::TestWithParam<GoldenSpec> {};

TEST_P(BenchGoldenDiff, HeadlineNumbersMatchSnapshotWithinTolerance) {
  const GoldenSpec& spec = GetParam();
  const std::string binary = std::string(LLMQ_BIN_DIR) + "/" + spec.binary;
  if (!file_exists(binary))
    GTEST_SKIP() << binary << " not built (benches disabled?)";

  const std::string golden_path =
      std::string(LLMQ_REPO_ROOT) + "/" + spec.golden;
  const auto golden = parse_file(golden_path);
  ASSERT_TRUE(golden.has_value())
      << spec.golden << " missing or unparseable — regenerate with `"
      << spec.binary << " --scale <s> --seed <n> --json " << spec.golden
      << "`";

  // Re-run at the snapshot's own scale/seed (read from its envelope, so
  // regenerating a golden at a new scale needs no test edit).
  const util::JsonValue* scale = golden->find("scale");
  const util::JsonValue* seed = golden->find("seed");
  ASSERT_NE(scale, nullptr);
  ASSERT_NE(seed, nullptr);
  char scale_buf[32];
  std::snprintf(scale_buf, sizeof scale_buf, "%.17g", scale->as_number());
  const std::string out_path =
      ::testing::TempDir() + "llmq_golden_rerun_" + spec.binary + ".json";
  const std::string cmd =
      binary + " --scale " + scale_buf + " --seed " +
      std::to_string(static_cast<long long>(seed->as_number())) + " --json " +
      out_path + " > /dev/null 2>&1";
  ASSERT_EQ(std::system(cmd.c_str()), 0) << cmd;
  const auto fresh = parse_file(out_path);
  ASSERT_TRUE(fresh.has_value()) << "rerun emitted unparseable JSON";

  const util::JsonValue* gsec = golden->find("sections");
  const util::JsonValue* fsec = fresh->find("sections");
  ASSERT_NE(gsec, nullptr);
  ASSERT_NE(fsec, nullptr);
  const bool compare_wallclock =
      timing_comparable(*golden) && timing_comparable(*fresh);
  for (const DiffKey& dk : spec.keys) {
    if (dk.wallclock && !compare_wallclock) continue;
    const util::JsonValue* grecs = gsec->find(dk.section);
    const util::JsonValue* frecs = fsec->find(dk.section);
    ASSERT_NE(grecs, nullptr) << "golden lacks section " << dk.section;
    ASSERT_NE(frecs, nullptr) << "rerun lacks section " << dk.section;
    ASSERT_EQ(grecs->as_array().size(), frecs->as_array().size())
        << dk.section << " record count changed — regenerate the golden";
    const auto check = [&](const std::string& where, double g, double f) {
      const double allowed =
          dk.relative ? std::max(dk.tol * std::fabs(g), 1e-3) : dk.tol;
      const bool ok = dk.fails == Fails::Below   ? f >= g - allowed
                      : dk.fails == Fails::Above ? f <= g + allowed
                                                 : std::fabs(f - g) <= allowed;
      EXPECT_TRUE(ok) << where << " = " << f
                      << " drifted from the committed snapshot's " << g
                      << " (" << spec.golden
                      << "); if intentional, regenerate it";
    };
    double g_logs = 0.0, f_logs = 0.0;
    const std::size_t n = grecs->as_array().size();
    for (std::size_t i = 0; i < n; ++i) {
      const util::JsonValue* gv = grecs->as_array()[i].find(dk.key);
      const util::JsonValue* fv = frecs->as_array()[i].find(dk.key);
      ASSERT_NE(gv, nullptr) << dk.section << "[" << i << "]." << dk.key;
      ASSERT_NE(fv, nullptr) << dk.section << "[" << i << "]." << dk.key;
      const std::string where =
          std::string(dk.section) + "[" + std::to_string(i) + "]." + dk.key;
      if (!dk.geomean) {
        check(where, gv->as_number(), fv->as_number());
        continue;
      }
      ASSERT_GT(gv->as_number(), 0.0) << where;
      ASSERT_GT(fv->as_number(), 0.0) << where;
      g_logs += std::log(gv->as_number());
      f_logs += std::log(fv->as_number());
    }
    if (dk.geomean && n > 0)
      check(std::string("geomean of ") + dk.section + "[*]." + dk.key,
            std::exp(g_logs / static_cast<double>(n)),
            std::exp(f_logs / static_cast<double>(n)));
  }
  std::remove(out_path.c_str());
}

std::string spec_name(const ::testing::TestParamInfo<GoldenSpec>& info) {
  return info.param.binary;
}

INSTANTIATE_TEST_SUITE_P(CommittedGoldens, BenchGoldenDiff,
                         ::testing::ValuesIn(golden_specs()), spec_name);

}  // namespace
}  // namespace llmq
