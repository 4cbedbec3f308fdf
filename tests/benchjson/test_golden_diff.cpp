// Committed bench goldens: each is its bench's report schema and anchors
// its headline numbers.
//
// BENCH_<name>.json at the repo root is a committed snapshot of one small
// bench_<name> run (a perf-trajectory anchor). It names its binary in its
// `bench` field and records every section, key and value type the report
// carries, so the golden is the report's schema: a silently renamed key
// or retyped value would break downstream tooling, and fails here. For
// every golden this suite
//   1. re-runs the bench at the golden's own scale/seed: the rerun must
//      have exactly the golden's sections and record counts, and every
//      golden key with the same JSON type (a report may gain keys); only
//      then are the bench's DiffKey bands read;
//   2. runs it again at --scale 0.01 --seed 7: every golden section must
//      be non-empty, with the golden's keys and types.
// Every golden needs a diff_keys() entry, and every entry a golden.
//
// The bands: the simulation is a pure function of (seed, config), so a
// drift is a real behavior change — a scheduler tweak moving p99 TTFT, a
// cache change moving PHR — that must be acknowledged by regenerating the
// snapshot, not discovered by downstream tooling. Wall-clock keys measure
// the host, not the code: virtual-time benches never band them, and
// bench_micro's wall-clock keys (same-run ratios only; its us/op values
// are report-only) are compared only between release non-sanitizer
// builds (provenance gate).
//
// The bench binary directory is compiled in (LLMQ_BIN_DIR, set by
// CMakeLists.txt to the build root); a golden whose bench is not built
// (e.g. a -DLLMQ_BUILD_BENCHES=OFF build) skips rather than fails.

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <map>
#include <optional>
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
/// Ceiling fails a rerun value above `tol` itself, without reading the
/// snapshot's value (a host timing).
enum class Fails { Either, Below, Above, Ceiling };

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

/// The banded keys of each golden'd bench, by binary name. Every other
/// golden key is held to its presence and type only.
const std::map<std::string, std::vector<DiffKey>>& diff_keys() {
  // PHR compares absolutely (it is already a fraction); latency tails
  // relatively, floored at 1 ms so near-zero arms don't demand exactness.
  static const std::map<std::string, std::vector<DiffKey>> keys = {
      // The paper's evaluation (Figs. 1, 3-6, Tables 2-7, GGR ablation).
      // Every simulated value is exact, not banded — the serving benches'
      // 0.02 bands would let a tokenizer, core/ggr.cpp, cost-model,
      // pricing or task-model change move a table unnoticed: job seconds
      // and speedups, PHR/PHC and hit fractions, costs and savings,
      // accuracy medians and intervals, GGR and OPHR node and fallback
      // counts, and the largest sample OPHR solves within its node budget.
      // Solver seconds and ms measure the host and are report-only.
      {"bench_paper",
       {{"fig1", "default_phc", false, 0.0},
        {"fig1", "best_fixed_phc", false, 0.0},
        {"fig1", "ggr_phc", false, 0.0},
        {"fig1", "ggr_nodes", false, 0.0},
        {"fig1", "ophr_solved", false, 0.0},
        {"fig1", "ophr_phc", false, 0.0},
        {"fig1", "ophr_nodes", false, 0.0},
        {"fig1_pricing", "savings", false, 0.0},
        {"table2", "rows", false, 0.0},
        {"table2", "original_phr", false, 0.0},
        {"table2", "ggr_phr", false, 0.0},
        {"fig3a", "rows_selected", false, 0.0},
        {"fig3a", "original_s", false, 0.0},
        {"fig3a", "ggr_s", false, 0.0},
        {"fig3a", "speedup_vs_original", false, 0.0},
        {"fig3a", "original_phr", false, 0.0},
        {"fig3a", "ggr_phr", false, 0.0},
        {"fig3a", "no_cache_s", false, 0.0},
        {"fig3a", "speedup_vs_no_cache", false, 0.0},
        {"fig3b", "rows_selected", false, 0.0},
        {"fig3b", "original_s", false, 0.0},
        {"fig3b", "ggr_s", false, 0.0},
        {"fig3b", "speedup_vs_original", false, 0.0},
        {"fig3b", "original_phr", false, 0.0},
        {"fig3b", "ggr_phr", false, 0.0},
        {"fig3b", "no_cache_s", false, 0.0},
        {"fig3b", "speedup_vs_no_cache", false, 0.0},
        {"fig4", "rows_selected", false, 0.0},
        {"fig4", "original_s", false, 0.0},
        {"fig4", "ggr_s", false, 0.0},
        {"fig4", "speedup_vs_original", false, 0.0},
        {"fig4", "original_phr", false, 0.0},
        {"fig4", "ggr_phr", false, 0.0},
        {"fig4", "no_cache_s", false, 0.0},
        {"fig4", "speedup_vs_no_cache", false, 0.0},
        {"fig4_aggregate", "aggregate", false, 0.0},
        {"fig5", "rows_selected", false, 0.0},
        {"fig5", "original_s", false, 0.0},
        {"fig5", "ggr_s", false, 0.0},
        {"fig5", "speedup_vs_original", false, 0.0},
        {"fig5", "original_phr", false, 0.0},
        {"fig5", "ggr_phr", false, 0.0},
        {"table3", "original_phr", false, 0.0},
        {"table3", "ggr_phr", false, 0.0},
        {"table3", "original_cost_usd", false, 0.0},
        {"table3", "ggr_cost_usd", false, 0.0},
        {"table3", "savings", false, 0.0},
        {"table4", "openai_savings", false, 0.0},
        {"table4", "anthropic_savings", false, 0.0},
        {"table5", "rows", false, 0.0},
        {"table5", "ggr_nodes", false, 0.0},
        {"table5", "ggr_fallbacks", false, 0.0},
        {"fig6", "original_median", false, 0.0},
        {"fig6", "ggr_median", false, 0.0},
        {"fig6", "original_ci_low", false, 0.0},
        {"fig6", "original_ci_high", false, 0.0},
        {"fig6", "ggr_ci_low", false, 0.0},
        {"fig6", "ggr_ci_high", false, 0.0},
        {"table6", "rows", false, 0.0},
        {"table6", "ophr_hit", false, 0.0},
        {"table6", "ggr_hit", false, 0.0},
        {"table6", "ophr_nodes", false, 0.0},
        {"table6", "ggr_nodes", false, 0.0},
        {"table7", "rows_selected", false, 0.0},
        {"table7", "original_s", false, 0.0},
        {"table7", "ggr_s", false, 0.0},
        {"table7", "speedup_vs_original", false, 0.0},
        {"table7", "original_phr", false, 0.0},
        {"table7", "ggr_phr", false, 0.0},
        {"ablation_ladder", "original", false, 0.0},
        {"ablation_ladder", "sorted_rows", false, 0.0},
        {"ablation_ladder", "stats_fixed", false, 0.0},
        {"ablation_ladder", "ggr_no_fd", false, 0.0},
        {"ablation_ladder", "ggr_fd", false, 0.0},
        {"ablation_depth", "no_fd_hit", false, 0.0},
        {"ablation_depth", "fd_hit", false, 0.0},
        {"ablation_depth", "fd_fallbacks", false, 0.0},
        {"ablation_threshold", "hit", false, 0.0},
        {"ablation_threshold", "ggr_nodes", false, 0.0},
        {"ablation_refine", "ggr_hit", false, 0.0},
        {"ablation_refine", "refined_hit", false, 0.0},
        {"ablation_refine", "moves", false, 0.0},
        {"ablation_window", "hit", false, 0.0},
        {"ablation_window", "windows", false, 0.0},
        {"ablation_squaring", "squared_hit", false, 0.0},
        {"ablation_squaring", "literal_hit", false, 0.0}}},
      // The serving-engine ablations behind Figs. 3-5 and Table 7: PHR and
      // simulated job time per KV pool, batch and block size. Exact, as
      // bench_paper's are: job time is a sum of cost-model terms, no host
      // timing.
      {"bench_ablation_serving",
       {{"kv_pool_sweep", "original_phr", false, 0.0},
        {"kv_pool_sweep", "ggr_phr", false, 0.0},
        {"kv_pool_sweep", "original_s", false, 0.0},
        {"kv_pool_sweep", "ggr_s", false, 0.0},
        {"batch_size_sweep", "original_s", false, 0.0},
        {"batch_size_sweep", "ggr_s", false, 0.0},
        {"block_size_sweep", "ggr_phr", false, 0.0},
        {"block_size_sweep", "ggr_s", false, 0.0}}},
      {"bench_serving_online",
       {{"rate_policy", "phr", false, 0.02},
        {"rate_policy", "p99_ttft_s", true, 0.10},
        {"rate_policy", "goodput_rps", true, 0.10},
        {"deadline_sweep", "phr", false, 0.02},
        {"deadline_sweep", "p99_ttft_s", true, 0.10},
        {"burstiness", "phr", false, 0.02}}},
      {"bench_chunked_prefill",
       {{"chunk_mix_sweep", "interactive_p99_ttft_s", true, 0.10},
        {"chunk_mix_sweep", "interactive_p99_itl_s", true, 0.10},
        {"chunk_mix_sweep", "goodput_rps", true, 0.10}}},
      {"bench_serving_router",
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
       {{"threaded_scaling", "agg_phr", false, 0.02},
        {"threaded_scaling", "p99_ttft_s", true, 0.10},
        {"threaded_scaling", "load_imbalance", true, 0.10},
        // The threaded run must STILL match the virtual-clock oracle —
        // exact, not banded (wall_s_* keys measure the host and are
        // deliberately not compared).
        {"threaded_scaling", "determinism_match", false, 0.0}}},
      {"bench_concurrent_queries",
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
      // cache timings are gated as fixed ceilings on same-run ratios:
      // the cache cycle over a bare tree walk of the same prompts
      // (vs_tree), and a drain over the build of the same tree
      // (vs_build). Over 90 lone runs on that VM they read 1.21-1.63 and
      // 1.00-1.38; an injected slowdown doubling the cache cycle or the
      // drain read at least 2.64 and 2.06. evict_pressure times the same
      // evicting cache cycle on a 4,096- and a 256-block cache
      // (vs_small): it read 1.17-1.31 over 32 lone runs, and 11.1-11.6
      // with an arena scan per evict call.
      {"bench_micro",
       {{"token_ops", "hash_check", false, 0.0},
        {"token_ops", "lcp_speedup", true, 0.35, true, Fails::Below, true},
        {"token_ops", "hash_speedup", true, 0.35, true, Fails::Below, true},
        {"radix_fanout", "check", false, 0.0},
        {"radix_fanout", "hit_vs_fanout4", true, 1.0, true, Fails::Above},
        {"radix_stream", "hit_tokens", false, 0.0},
        {"radix_stream", "inserted_blocks", false, 0.0},
        {"radix_stream", "vs_tree", false, 2.0, true, Fails::Ceiling},
        {"evict_batch", "evicted", false, 0.0},
        {"evict_batch", "vs_build", false, 1.7, true, Fails::Ceiling},
        {"evict_pressure", "evicted", false, 0.0},
        {"evict_pressure", "vs_small", false, 2.0, true, Fails::Ceiling},
        {"tokenize", "rows", false, 0.0},
        {"tokenize", "tokens", false, 0.0},
        {"tokenize", "fingerprint", false, 0.0},
        {"alloc_steadystate", "steady_allocs", false, 0.0},
        {"alloc_steadystate", "node_slots_delta", false, 0.0},
        {"alloc_steadystate", "steady_allocs_tiers2", false, 0.0},
        {"alloc_steadystate", "steady_allocs_tiers3", false, 0.0}}},
      // Tier hierarchy + elasticity. PHR and tails use the standard
      // bands; the headline tiered-vs-flat ordering is re-asserted by the
      // bench itself (it exits nonzero on violation), so the golden pins
      // the magnitudes. Audit verdicts and the threaded-vs-oracle match
      // are exact — a band on a boolean hides a broken invariant.
      {"bench_tiered_cache",
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
  return keys;
}

/// The committed goldens: every BENCH_*.json at the repo root, sorted.
std::vector<std::string> golden_files() {
  std::vector<std::string> names;
  for (const auto& entry :
       std::filesystem::directory_iterator(LLMQ_REPO_ROOT)) {
    const std::string name = entry.path().filename().string();
    if (name.starts_with("BENCH_") && name.ends_with(".json"))
      names.push_back(name);
  }
  std::sort(names.begin(), names.end());
  return names;
}

std::optional<util::JsonValue> parse_file(const std::string& path) {
  std::ifstream in(path);
  if (!in.good()) return std::nullopt;
  std::stringstream buf;
  buf << in.rdbuf();
  return util::json_parse(buf.str());
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

/// Appends to `out` each key of the object `want` that `got` lacks or
/// holds with another JSON type.
void lacking_keys(const util::JsonValue& want, const util::JsonValue& got,
                  const std::string& where, std::vector<std::string>& out) {
  for (const auto& [key, value] : want.as_object()) {
    const util::JsonValue* v = got.find(key);
    if (v == nullptr)
      out.push_back(where + " lacks key " + key);
    else if (v->type() != value.type())
      out.push_back(where + "." + key + " changed JSON type");
  }
}

/// How `run`'s report departs from the shape of `golden`: the envelope
/// keeps the golden's keys, types and bench name, and the provenance
/// strings are non-empty; every golden section is a non-empty array whose
/// records carry the golden record's keys and types. A rerun at the
/// golden's own scale and seed (`same_run`) must also have exactly the
/// golden's sections and record counts, and record i is held to golden
/// record i; otherwise every record is held to the golden's first.
std::vector<std::string> schema_problems(const util::JsonValue& golden,
                                         const util::JsonValue& run,
                                         bool same_run) {
  std::vector<std::string> out;
  if (!run.is_object()) return {"report is not a JSON object"};
  lacking_keys(golden, run, "report", out);
  if (!out.empty()) return out;  // nothing below can be read
  if (run.find("bench")->as_string() != golden.find("bench")->as_string())
    out.push_back("report names bench " + run.find("bench")->as_string());
  for (const auto& [key, value] : run.find("provenance")->as_object())
    if (value.is_string() && value.as_string().empty())
      out.push_back("provenance." + key + " is empty");
  lacking_keys(*golden.find("provenance"), *run.find("provenance"),
               "provenance", out);

  const util::JsonValue& gsecs = *golden.find("sections");
  const util::JsonValue& rsecs = *run.find("sections");
  lacking_keys(gsecs, rsecs, "sections", out);
  if (same_run)
    for (const auto& [name, records] : rsecs.as_object())
      if (gsecs.find(name) == nullptr)
        out.push_back("report has section " + name + ", the golden not");
  for (const auto& [name, grecs] : gsecs.as_object()) {
    const util::JsonValue* rrecs = rsecs.find(name);
    if (rrecs == nullptr || !rrecs->is_array()) continue;  // reported above
    const auto& want = grecs.as_array();
    const auto& got = rrecs->as_array();
    if (want.empty()) {
      out.push_back("golden section " + name + " is empty");
      continue;
    }
    if (got.empty()) out.push_back("section " + name + " is empty");
    if (same_run && got.size() != want.size())
      out.push_back("section " + name + " has " + std::to_string(got.size()) +
                    " records, the golden " + std::to_string(want.size()));
    for (std::size_t i = 0; i < got.size(); ++i) {
      const std::string where = name + "[" + std::to_string(i) + "]";
      if (!got[i].is_object())
        out.push_back(where + " is not an object");
      else
        lacking_keys(want[same_run && i < want.size() ? i : 0], got[i],
                     where, out);
    }
  }
  return out;
}

std::string lines(const std::vector<std::string>& problems) {
  std::string s;
  for (const std::string& p : problems) s += "  " + p + "\n";
  return s;
}

/// One committed golden, named by its file (BENCH_<name>.json).
class CommittedGolden : public ::testing::TestWithParam<std::string> {
 protected:
  void SetUp() override {
    const std::string& file = GetParam();
    golden_ = parse_file(std::string(LLMQ_REPO_ROOT) + "/" + file);
    ASSERT_TRUE(golden_.has_value()) << file << " is not valid JSON";
    ASSERT_TRUE(golden_->is_object()) << file;
    for (const char* key : {"bench", "scale", "seed", "provenance"})
      ASSERT_NE(golden_->find(key), nullptr) << file << " lacks " << key;
    ASSERT_NE(golden_->find("sections"), nullptr) << file;
    ASSERT_TRUE(golden_->find("sections")->is_object()) << file;
    ASSERT_TRUE(golden_->find("provenance")->is_object()) << file;
    bench_ = golden_->find("bench")->as_string();
    // BENCH_<name>.json is the golden of bench_<name>, which it names.
    const std::string stem = file.substr(0, file.size() - 5);
    ASSERT_EQ(bench_, "bench_" + stem.substr(6))
        << file << " names the wrong bench";
    ASSERT_EQ(diff_keys().count(bench_), 1u)
        << file << ": give " << bench_
        << " a diff_keys() entry (empty for a schema-only golden)";
    if (!std::ifstream(std::string(LLMQ_BIN_DIR) + "/" + bench_).good())
      GTEST_SKIP() << bench_ << " not built (benches disabled?)";
  }

  /// The bench's --json report at (scale, seed); nullopt, with a recorded
  /// failure, when the run fails or writes no parseable JSON.
  std::optional<util::JsonValue> run(const std::string& scale,
                                     const std::string& seed) const {
    const std::string out_path =
        ::testing::TempDir() + "llmq_golden_" + bench_ + "_" + seed + ".json";
    const std::string cmd = std::string(LLMQ_BIN_DIR) + "/" + bench_ +
                            " --scale " + scale + " --seed " + seed +
                            " --json " + out_path + " > /dev/null 2>&1";
    std::remove(out_path.c_str());
    if (std::system(cmd.c_str()) != 0) {
      ADD_FAILURE() << cmd << " failed";
      return std::nullopt;
    }
    auto doc = parse_file(out_path);
    if (!doc.has_value()) ADD_FAILURE() << cmd << " wrote no parseable JSON";
    std::remove(out_path.c_str());
    return doc;
  }

  std::optional<util::JsonValue> golden_;
  std::string bench_;
};

// Re-run at the snapshot's own scale/seed (read from its envelope, so
// regenerating a golden at a new scale needs no test edit).
TEST_P(CommittedGolden, RerunHasGoldenSchemaAndHeadlineNumbers) {
  char scale[32];
  std::snprintf(scale, sizeof scale, "%.17g",
                golden_->find("scale")->as_number());
  const auto fresh = run(scale, std::to_string(static_cast<long long>(
                                    golden_->find("seed")->as_number())));
  ASSERT_TRUE(fresh.has_value());
  const std::vector<std::string> problems =
      schema_problems(*golden_, *fresh, /*same_run=*/true);
  ASSERT_TRUE(problems.empty())
      << "the rerun departs from " << GetParam() << ":\n"
      << lines(problems) << "if intentional, regenerate the golden";

  const util::JsonValue& gsec = *golden_->find("sections");
  const util::JsonValue& fsec = *fresh->find("sections");
  const bool compare_wallclock =
      timing_comparable(*golden_) && timing_comparable(*fresh);
  for (const DiffKey& dk : diff_keys().at(bench_)) {
    const util::JsonValue* grecs = gsec.find(dk.section);
    ASSERT_NE(grecs, nullptr) << GetParam() << " lacks section " << dk.section;
    for (const util::JsonValue& rec : grecs->as_array())
      ASSERT_NE(rec.find(dk.key), nullptr)
          << GetParam() << " lacks " << dk.section << "." << dk.key;
    if (dk.wallclock && !compare_wallclock) continue;
    // The schema check above matched the rerun's records to these.
    const auto& golden_recs = grecs->as_array();
    const auto& fresh_recs = fsec.find(dk.section)->as_array();
    const auto where = [&](std::size_t i) {
      return std::string(dk.section) + "[" + std::to_string(i) + "]." + dk.key;
    };
    if (dk.fails == Fails::Ceiling) {
      for (std::size_t i = 0; i < fresh_recs.size(); ++i)
        EXPECT_LE(fresh_recs[i].find(dk.key)->as_number(), dk.tol)
            << where(i) << " exceeds its ceiling";
      continue;
    }
    const auto check = [&](const std::string& at, double g, double f) {
      const double allowed =
          dk.relative ? std::max(dk.tol * std::fabs(g), 1e-3) : dk.tol;
      const bool ok = dk.fails == Fails::Below   ? f >= g - allowed
                      : dk.fails == Fails::Above ? f <= g + allowed
                                                 : std::fabs(f - g) <= allowed;
      EXPECT_TRUE(ok) << at << " = " << f
                      << " drifted from the committed snapshot's " << g
                      << " (" << GetParam()
                      << "); if intentional, regenerate it";
    };
    double g_logs = 0.0, f_logs = 0.0;
    const std::size_t n = golden_recs.size();
    for (std::size_t i = 0; i < n; ++i) {
      const double g = golden_recs[i].find(dk.key)->as_number();
      const double f = fresh_recs[i].find(dk.key)->as_number();
      if (!dk.geomean) {
        check(where(i), g, f);
        continue;
      }
      ASSERT_GT(g, 0.0) << where(i);
      ASSERT_GT(f, 0.0) << where(i);
      g_logs += std::log(g);
      f_logs += std::log(f);
    }
    if (dk.geomean && n > 0)
      check(std::string("geomean of ") + dk.section + "[*]." + dk.key,
            std::exp(g_logs / static_cast<double>(n)),
            std::exp(f_logs / static_cast<double>(n)));
  }
}

// Another scale and seed: the report keeps the golden's shape wherever the
// bench runs, not only at the snapshot's configuration.
TEST_P(CommittedGolden, SmallRunHasGoldenSchema) {
  const auto fresh = run("0.01", "7");
  ASSERT_TRUE(fresh.has_value());
  const std::vector<std::string> problems =
      schema_problems(*golden_, *fresh, /*same_run=*/false);
  EXPECT_TRUE(problems.empty())
      << bench_ << " --scale 0.01 --seed 7 departs from " << GetParam()
      << ":\n"
      << lines(problems);
}

std::string golden_name(const ::testing::TestParamInfo<std::string>& info) {
  return info.param.substr(0, info.param.size() - 5);  // drop ".json"
}

INSTANTIATE_TEST_SUITE_P(CommittedGoldens, CommittedGolden,
                         ::testing::ValuesIn(golden_files()), golden_name);

// A diff_keys() entry whose golden is gone would otherwise pin nothing.
TEST(CommittedGoldens, EveryDiffKeysEntryHasAGolden) {
  const std::vector<std::string> files = golden_files();
  for (const auto& [bench, keys] : diff_keys()) {
    ASSERT_TRUE(bench.starts_with("bench_")) << bench;
    const std::string file = "BENCH_" + bench.substr(6) + ".json";
    EXPECT_NE(std::find(files.begin(), files.end(), file), files.end())
        << bench << " has a diff_keys() entry but no committed " << file;
  }
}

}  // namespace
}  // namespace llmq
