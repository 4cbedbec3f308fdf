// Golden JSON schema tests for the --json-capable bench binaries.
//
// Each bench's --json report feeds downstream perf-trajectory tooling;
// a silently renamed key or retyped value breaks that tooling without
// failing any test. This harness runs every JSON bench at trivial scale
// and validates the report's shape with util::json_parse: the standard
// envelope (bench / scale / seed / sections) plus, per section, the
// required record keys and their types. Extra keys are allowed —
// reports may grow — but required keys may not vanish or change type.
//
// The bench binary directory is compiled in (LLMQ_BIN_DIR, set by
// CMakeLists.txt to the build root); when the binaries are absent (e.g.
// a -DLLMQ_BUILD_BENCHES=OFF build) the tests skip rather than fail. The
// same goes for the example binaries that ExampleCli runs.

#include <gtest/gtest.h>

#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include <sys/wait.h>

#include "util/json.hpp"

#ifndef LLMQ_BIN_DIR
#define LLMQ_BIN_DIR "."
#endif

namespace llmq {
namespace {

struct KeySpec {
  const char* key;
  util::JsonValue::Type type;
};

struct SectionSpec {
  const char* name;
  std::vector<KeySpec> keys;
};

struct BenchSpec {
  const char* binary;
  std::vector<SectionSpec> sections;
};

constexpr auto kNum = util::JsonValue::Type::Number;
constexpr auto kStr = util::JsonValue::Type::String;

const std::vector<BenchSpec>& bench_specs() {
  static const std::vector<BenchSpec> specs = {
      {"bench_table2_phr",
       {{"phr",
         {{"dataset", kStr},
          {"rows", kNum},
          {"original_phr", kNum},
          {"ggr_phr", kNum},
          {"paper_original_phr", kNum},
          {"paper_ggr_phr", kNum}}}}},
      {"bench_serving_online",
       {{"rate_policy",
         {{"policy", kStr},
          {"rate", kNum},
          {"phr", kNum},
          {"phc", kNum},
          {"windows", kNum},
          {"p50_ttft_s", kNum},
          {"p99_ttft_s", kNum},
          {"mean_queue_delay_s", kNum},
          {"goodput_rps", kNum}}},
        {"deadline_sweep",
         {{"policy", kStr},
          {"deadline_s", kNum},
          {"phr", kNum},
          {"p50_ttft_s", kNum},
          {"p99_ttft_s", kNum},
          {"mean_window_rows", kNum}}},
        {"burstiness",
         {{"process", kStr},
          {"phr", kNum},
          {"p50_ttft_s", kNum},
          {"p99_ttft_s", kNum},
          {"peak_batch", kNum}}},
        {"trace_overhead",
         {{"wall_s_no_trace", kNum},
          {"wall_s_traced", kNum},
          {"overhead_frac", kNum}}}}},
      {"bench_serving_router",
       {{"replicas_policy",
         {{"replicas", kNum},
          {"router", kStr},
          {"rate", kNum},
          {"agg_phr", kNum},
          {"p50_ttft_s", kNum},
          {"p99_ttft_s", kNum},
          {"load_imbalance", kNum},
          {"goodput_rps", kNum},
          {"phc", kNum}}},
        {"policy_rate",
         {{"replicas", kNum},
          {"router", kStr},
          {"rate", kNum},
          {"agg_phr", kNum},
          {"load_imbalance", kNum},
          {"goodput_rps", kNum}}}}},
      {"bench_ablation_serving",
       {{"kv_pool_sweep",
         {{"pool_mult", kNum},
          {"original_phr", kNum},
          {"ggr_phr", kNum},
          {"original_s", kNum},
          {"ggr_s", kNum}}},
        {"batch_size_sweep",
         {{"max_batch", kNum}, {"original_s", kNum}, {"ggr_s", kNum}}},
        {"block_size_sweep",
         {{"block_tokens", kNum}, {"ggr_phr", kNum}, {"ggr_s", kNum}}}}},
      {"bench_priority_preemption",
       {{"overload",
         {{"rate_mult", kNum},
          {"rate_rps", kNum},
          {"preemption", kStr},
          {"interactive_p99_ttft_s", kNum},
          {"standard_p99_ttft_s", kNum},
          {"batch_p99_e2e_s", kNum},
          {"interactive_goodput_rps", kNum},
          {"batch_completed", kNum},
          {"preemptions", kNum},
          {"recompute_tokens", kNum},
          {"agg_phr", kNum}}},
        {"aging_sweep",
         {{"aging_s", kNum},
          {"interactive_p99_ttft_s", kNum},
          {"batch_p99_e2e_s", kNum},
          {"batch_completed", kNum},
          {"preemptions", kNum}}}}},
      {"bench_chunked_prefill",
       {{"chunk_mix_sweep",
         {{"mix", kStr},
          {"chunk_tokens", kNum},
          {"interactive_p99_ttft_s", kNum},
          {"interactive_p99_itl_s", kNum},
          {"max_decode_stall_s", kNum},
          {"batch_p99_e2e_s", kNum},
          {"goodput_rps", kNum},
          {"prompt_tokens", kNum},
          {"chunked_prefill_tokens", kNum},
          {"tokens_conserved", kStr}}},
        {"deep_backlog",
         {{"depth", kNum}, {"us_per_request", kNum}}}}},
      {"bench_micro",
       {{"token_ops",
         {{"len", kNum},
          {"isa", kStr},
          {"lcp_us", kNum},
          {"lcp_scalar_us", kNum},
          {"lcp_speedup", kNum},
          {"hash_us", kNum},
          {"hash_scalar_us", kNum},
          {"hash_speedup", kNum},
          {"equal_us", kNum},
          {"equal_scalar_us", kNum},
          {"hash_check", kNum}}},
        {"radix_fanout",
         {{"fanout", kNum},
          {"hit_us", kNum},
          {"miss_us", kNum},
          {"hit_vs_fanout4", kNum},
          {"check", kNum}}},
        {"radix_stream",
         {{"requests", kNum},
          {"us_per_request", kNum},
          {"tree_us_per_request", kNum},
          {"vs_tree", kNum},
          {"hit_tokens", kNum},
          {"inserted_blocks", kNum}}},
        {"evict_batch",
         {{"nodes", kNum},
          {"evicted", kNum},
          {"us_per_block", kNum},
          {"build_us_per_block", kNum},
          {"vs_build", kNum}}},
        {"evict_pressure",
         {{"cycles", kNum},
          {"small_blocks", kNum},
          {"large_blocks", kNum},
          {"evicted", kNum},
          {"small_us_per_cycle", kNum},
          {"large_us_per_cycle", kNum},
          {"vs_small", kNum}}},
        {"tokenize",
         {{"dataset", kStr},
          {"rows", kNum},
          {"tokens", kNum},
          {"ns_per_token", kNum},
          {"us_per_row", kNum},
          {"fingerprint", kNum}}},
        {"alloc_steadystate",
         {{"steady_passes", kNum},
          {"warmup_allocs", kNum},
          {"steady_allocs", kNum},
          {"node_slots_delta", kNum}}}}},
      {"bench_concurrent_queries",
       {{"queries_router",
         {{"queries", kNum},
          {"router", kStr},
          {"replicas", kNum},
          {"serial_phr", kNum},
          {"agg_phr", kNum},
          {"effective_hit_fraction", kNum},
          {"dedup_hits", kNum},
          {"dedup_saved_prompt_tokens", kNum},
          {"makespan_s", kNum},
          {"speedup_vs_serial", kNum},
          {"p50_ttft_s", kNum},
          {"p99_ttft_s", kNum},
          {"load_imbalance", kNum}}}}},
      {"bench_scenarios",
       {{"session_turns",
         {{"turns", kNum},
          {"requests", kNum},
          {"agg_phr", kNum},
          {"p99_ttft_s", kNum},
          {"p50_e2e_s", kNum},
          {"windows", kNum}}},
        {"agentic",
         {{"replicas", kNum},
          {"roots", kNum},
          {"turns", kNum},
          {"requests", kNum},
          {"turn_spawns", kNum},
          {"audit_ok", kNum},
          {"agg_phr", kNum}}},
        {"spjf_overload",
         {{"arm", kStr},
          {"completions", kNum},
          {"short_p99_ttft_s", kNum},
          {"long_p99_ttft_s", kNum},
          {"p99_ttft_s", kNum},
          {"agg_phr", kNum}}},
        {"penalty_ablation",
         {{"penalty", kNum}, {"mean_predicted_tokens", kNum}}}}},
      {"bench_tiered_cache",
       {{"tiers_vs_flat",
         {{"replicas", kNum},
          {"arm", kStr},
          {"agg_phr", kNum},
          {"interactive_p99_ttft_s", kNum},
          {"p99_ttft_s", kNum},
          {"goodput_rps", kNum},
          {"demoted_blocks", kNum},
          {"promoted_blocks", kNum},
          {"promote_seconds", kNum},
          {"load_imbalance", kNum}}},
        {"split_sweep",
         {{"host_capacity_blocks", kNum},
          {"agg_phr", kNum},
          {"interactive_p99_ttft_s", kNum},
          {"demoted_blocks", kNum},
          {"evicted_blocks", kNum},
          {"promote_seconds", kNum}}},
        {"elasticity",
         {{"spawn", kStr},
          {"migrate_max_blocks", kNum},
          {"agg_phr", kNum},
          {"interactive_p99_ttft_s", kNum},
          {"p99_ttft_s", kNum},
          {"replica_spawns", kNum},
          {"replica_drains", kNum},
          {"prefix_migrations", kNum},
          {"migrated_blocks", kNum},
          {"audit_ok", kNum}}},
        {"determinism",
         {{"replicas", kNum}, {"determinism_match", kNum}}}}},
  };
  return specs;
}

bool file_exists(const std::string& path) {
  std::ifstream f(path);
  return f.good();
}

class BenchJsonSchema : public ::testing::TestWithParam<BenchSpec> {};

TEST_P(BenchJsonSchema, TrivialRunEmitsRequiredKeysAndTypes) {
  const BenchSpec& spec = GetParam();
  const std::string binary = std::string(LLMQ_BIN_DIR) + "/" + spec.binary;
  if (!file_exists(binary))
    GTEST_SKIP() << binary << " not built (benches disabled?)";

  const std::string out_path =
      ::testing::TempDir() + "llmq_" + spec.binary + ".json";
  const std::string cmd = binary + " --scale 0.01 --seed 7 --json " +
                          out_path + " > /dev/null 2>&1";
  ASSERT_EQ(std::system(cmd.c_str()), 0) << cmd;

  std::ifstream in(out_path);
  ASSERT_TRUE(in.good()) << "bench wrote no JSON to " << out_path;
  std::stringstream buf;
  buf << in.rdbuf();
  const auto doc = util::json_parse(buf.str());
  ASSERT_TRUE(doc.has_value()) << "bench emitted unparseable JSON";

  // Envelope: bench name echoes the binary; scale/seed numeric.
  ASSERT_TRUE(doc->is_object());
  const util::JsonValue* name = doc->find("bench");
  ASSERT_NE(name, nullptr);
  EXPECT_EQ(name->as_string(), spec.binary);
  ASSERT_NE(doc->find("scale"), nullptr);
  EXPECT_TRUE(doc->find("scale")->is_number());
  ASSERT_NE(doc->find("seed"), nullptr);
  EXPECT_TRUE(doc->find("seed")->is_number());
  // Envelope v2: schema version + toolchain provenance (a golden diff
  // must be able to refuse cross-toolchain comparisons).
  ASSERT_NE(doc->find("schema_version"), nullptr);
  EXPECT_TRUE(doc->find("schema_version")->is_number());
  const util::JsonValue* prov = doc->find("provenance");
  ASSERT_NE(prov, nullptr);
  ASSERT_TRUE(prov->is_object());
  for (const char* key :
       {"build_type", "sanitizer", "compiler", "compiler_version"}) {
    const util::JsonValue* v = prov->find(key);
    ASSERT_NE(v, nullptr) << "provenance lacks " << key;
    EXPECT_TRUE(v->is_string()) << "provenance." << key;
    EXPECT_FALSE(v->as_string().empty()) << "provenance." << key;
  }
  const util::JsonValue* sections = doc->find("sections");
  ASSERT_NE(sections, nullptr);
  ASSERT_TRUE(sections->is_object());

  for (const SectionSpec& sec : spec.sections) {
    const util::JsonValue* records = sections->find(sec.name);
    ASSERT_NE(records, nullptr) << "missing section " << sec.name;
    ASSERT_TRUE(records->is_array()) << sec.name;
    ASSERT_FALSE(records->as_array().empty()) << sec.name << " is empty";
    std::size_t i = 0;
    for (const util::JsonValue& rec : records->as_array()) {
      ASSERT_TRUE(rec.is_object()) << sec.name << "[" << i << "]";
      for (const KeySpec& k : sec.keys) {
        const util::JsonValue* v = rec.find(k.key);
        ASSERT_NE(v, nullptr)
            << sec.name << "[" << i << "] lacks key " << k.key;
        EXPECT_EQ(static_cast<int>(v->type()), static_cast<int>(k.type))
            << sec.name << "[" << i << "]." << k.key << " changed type";
      }
      ++i;
    }
  }
  std::remove(out_path.c_str());
}

std::string spec_name(const ::testing::TestParamInfo<BenchSpec>& info) {
  return info.param.binary;
}

INSTANTIATE_TEST_SUITE_P(AllJsonBenches, BenchJsonSchema,
                         ::testing::ValuesIn(bench_specs()), spec_name);

/// Exit status and stderr of `bench args` (stdout discarded).
struct CliRun {
  int status = -1;
  std::string err;
};

CliRun run_cli(const std::string& bench, const std::string& args) {
  const std::string cmd = std::string(LLMQ_BIN_DIR) + "/" + bench + " " +
                          args + " 2>&1 > /dev/null";
  CliRun run;
  FILE* pipe = popen(cmd.c_str(), "r");
  if (pipe == nullptr) return run;
  char buf[256];
  while (std::fgets(buf, sizeof buf, pipe) != nullptr) run.err += buf;
  const int status = pclose(pipe);
  if (WIFEXITED(status)) run.status = WEXITSTATUS(status);
  return run;
}

// A mistyped flag, a flag missing its value, a non-numeric scale, or an
// output the bench does not write is a usage error (exit status 2, with a
// usage line naming only that bench's flags), never a silent run of the
// default config. An output file that cannot be written exits 1.
TEST(BenchCli, BadFlagsExitWithUsageError) {
  for (const char* bench :
       {"bench_table2_phr", "bench_fig3a_filter", "bench_chunked_prefill"})
    if (!file_exists(std::string(LLMQ_BIN_DIR) + "/" + bench))
      GTEST_SKIP() << bench << " not built (benches disabled?)";
  for (const char* args :
       {"--sclae 0.02", "--scale", "--scale abc", "--trace p"}) {
    const CliRun run = run_cli("bench_table2_phr", args);
    EXPECT_EQ(run.status, 2) << args;
    EXPECT_NE(run.err.find("usage:"), std::string::npos) << args;
    EXPECT_NE(run.err.find("[--json path]"), std::string::npos) << args;
    EXPECT_EQ(run.err.find("--trace path"), std::string::npos) << args;
  }
  for (const char* args : {"--json p", "--trace p"}) {
    const CliRun run = run_cli("bench_fig3a_filter", args);
    EXPECT_EQ(run.status, 2) << args;
    EXPECT_NE(run.err.find("usage:"), std::string::npos) << args;
    EXPECT_EQ(run.err.find("--json path"), std::string::npos) << args;
    EXPECT_EQ(run.err.find("--trace path"), std::string::npos) << args;
  }
  for (const auto& [bench, args] :
       {std::pair{"bench_table2_phr",
                  "--scale 0.02 --json /nonexistent/dir/x.json"},
        std::pair{"bench_chunked_prefill",
                  "--scale 0.01 --trace /nonexistent/dir/t.json"}}) {
    const CliRun run = run_cli(bench, args);
    EXPECT_EQ(run.status, 1) << bench << " " << args;
    EXPECT_NE(run.err.find("could not write"), std::string::npos) << args;
  }
}

// The examples keep the same contract: a bad flag or value, including a
// non-positive or non-numeric count, exits 2 with the usage line, and a
// file that cannot be read or written exits 1 with an error line. Every
// example target CMake builds (LLMQ_EXAMPLES) also runs its defaults to
// exit 0 with an empty stderr, so an example that throws fails here.
TEST(ExampleCli, FailLoudlyAndRunDefaults) {
  std::vector<std::string> examples;
  std::istringstream list(LLMQ_EXAMPLES);
  for (std::string name; std::getline(list, name, ',');)
    examples.push_back(name);
  if (examples.empty()) GTEST_SKIP() << "examples not built";
  const std::string dir = ::testing::TempDir();
  const std::string csv = dir + "llmq_example_cli.csv";
  const std::string no_rows = dir + "llmq_example_cli_empty.csv";
  const std::string out = dir + "llmq_example_cli_out.csv";
  std::ofstream(csv) << "id,city,plan\n1,berlin,a\n2,berlin,a\n3,munich,b\n";
  std::ofstream(no_rows) << "id,city,plan\n";
  std::remove(out.c_str());
  struct Case {
    std::string example;
    std::string args;
    int status;
  };
  std::vector<Case> cases{
      {"example_plan_csv", "", 2},
      {"example_plan_csv", "--window 2", 2},
      {"example_plan_csv", csv + " --windw 2", 2},
      {"example_plan_csv", csv + " --window abc", 2},
      {"example_plan_csv", csv + " --window 0", 2},
      {"example_plan_csv", csv + " --fd-tolerance x", 2},
      {"example_plan_csv", csv + " --policy bogus", 2},
      {"example_plan_csv", csv + " --out", 2},
      {"example_cost_explorer", csv + " abc", 2},
      {"example_cost_explorer", csv + " 0", 2},
      {"example_customer_tickets", "abc", 2},
      {"example_customer_tickets", "0", 2},
      {"example_online_serving", "--trcae t.json", 2},
      {"example_quickstart", "--scale 0.1", 2},
      {"example_plan_csv", "/nonexistent/dir/in.csv", 1},
      {"example_plan_csv", no_rows, 1},
      {"example_plan_csv", csv + " --out /nonexistent/dir/o.csv", 1},
      {"example_cost_explorer", "/nonexistent/dir/in.csv", 1},
      {"example_online_serving", "--trace /nonexistent/dir/t.json", 1},
      // Well-formed invocations still run.
      {"example_plan_csv",
       csv + " --policy ggr --window 2 --fd-tolerance 0.1 --out " + out, 0},
      {"example_cost_explorer", csv + " 5", 0},
  };
  for (const std::string& example : examples)  // plan_csv needs an input
    cases.push_back({example, example == "example_plan_csv" ? csv : "", 0});
  for (const auto& [example, args, status] : cases) {
    const CliRun run = run_cli(example, args);
    EXPECT_EQ(run.status, status) << example << " " << args << "\n" << run.err;
    EXPECT_EQ(run.err.find("usage:") != std::string::npos, status == 2)
        << example << " " << args << "\n" << run.err;
    EXPECT_EQ(run.err.empty(), status == 0) << example << " " << args;
  }
  EXPECT_TRUE(file_exists(out));
}

}  // namespace
}  // namespace llmq
