// Command-line contract of the bench and example binaries: a mistyped
// flag or value is a usage error, a file that cannot be read or written
// is an error, and every example runs its defaults cleanly. (The JSON
// reports' schema is the committed goldens', test_golden_diff.cpp.)
//
// The binary directory is compiled in (LLMQ_BIN_DIR, set by
// CMakeLists.txt to the build root); when the binaries are absent (e.g.
// a -DLLMQ_BUILD_BENCHES=OFF build) the tests skip rather than fail.

#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include <sys/wait.h>

#ifndef LLMQ_BIN_DIR
#define LLMQ_BIN_DIR "."
#endif

namespace llmq {
namespace {

bool file_exists(const std::string& path) {
  std::ifstream f(path);
  return f.good();
}

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
  for (const char* bench : {"bench_paper", "bench_chunked_prefill"})
    if (!file_exists(std::string(LLMQ_BIN_DIR) + "/" + bench))
      GTEST_SKIP() << bench << " not built (benches disabled?)";
  for (const char* args :
       {"--sclae 0.02", "--scale", "--scale abc", "--trace p"}) {
    const CliRun run = run_cli("bench_paper", args);
    EXPECT_EQ(run.status, 2) << args;
    EXPECT_NE(run.err.find("usage:"), std::string::npos) << args;
    EXPECT_NE(run.err.find("[--json path]"), std::string::npos) << args;
    EXPECT_EQ(run.err.find("--trace path"), std::string::npos) << args;
  }
  for (const auto& [bench, args] :
       {std::pair{"bench_paper", "--scale 0.01 --json /nonexistent/dir/x.json"},
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
