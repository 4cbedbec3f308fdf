#pragma once
// The benchmark's workloads. Each builds its inputs from a seed and then
// runs one of two equivalent programs:
//
//   * run()          — the public entry point a user calls
//                      (query::run_query, serve::run_online,
//                      serve::run_queries_served), untraced;
//   * run_composed() — the same work composed from the layer calls that
//                      entry point makes, with a span around each call.
//
// Both must produce bit-identical simulated metrics; the composed program
// is what the traced run measures, so a mismatch means the trace measured
// a different program.

#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "spans.hpp"

namespace perfbench {

enum class Size { Tiny, Full };

/// Simulated-clock results: pure functions of code and seed, compared
/// exactly between repeated, composed and traced runs.
struct SimMetrics {
  double jct_s = 0.0;
  double phr = 0.0;
  double ttft_p50_s = 0.0;
  double ttft_p99_s = 0.0;
  std::uint64_t ttft_count = 0;
  double itl_p99_s = 0.0;
  double goodput_rps = 0.0;
  double phc = 0.0;
  std::uint64_t prompt_tokens = 0;
  std::uint64_t cached_tokens = 0;
  std::uint64_t output_tokens = 0;
  /// FNV-1a digest of the relational answers (batch and served queries).
  std::uint64_t answer_digest = 0;

  bool operator==(const SimMetrics&) const = default;
};

struct RunOutcome {
  SimMetrics sim;
  std::uint64_t submitted = 0;    // LLM invocations submitted
  std::uint64_t invocations = 0;  // LLM invocations completed
  std::uint64_t failed = 0;       // invocations failing a conservation check
  std::vector<std::string> errors;
};

struct CheckResult {
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::vector<std::string> errors;
  std::vector<std::string> passed;  // names of checks that held
};

/// Named metric values a workload reports beyond span self times.
using Values = std::map<std::string, double>;

class Workload {
 public:
  virtual ~Workload() = default;

  /// Build the inputs from `seed`; the data-generation calls run under a
  /// "data.generate" span when `rec` is non-null.
  virtual void setup(std::uint64_t seed, Size size, SpanRecorder* rec) = 0;
  /// One line: loop type, rate, sizes.
  virtual std::string describe() const = 0;

  virtual RunOutcome run() = 0;
  virtual RunOutcome run_composed(SpanRecorder* rec) = 0;

  /// Untimed composed run that records the per-layer counts, ratios and
  /// replays into `layer`.
  virtual RunOutcome run_capture(Values& layer) = 0;

  /// Untimed correctness checks beyond conservation. `ref` is run()'s
  /// outcome and `virtual_wall_s` its median wall time; probes that
  /// compare against them write their results into `layer`.
  virtual CheckResult checks(const RunOutcome& ref, double virtual_wall_s,
                             Values& layer) = 0;

  /// Simulated metrics this workload defines, by metric name.
  virtual Values sim_report(const SimMetrics& sim) const = 0;
};

const std::vector<std::string>& workload_names();
/// nullptr for an unknown name.
std::unique_ptr<Workload> make_workload(const std::string& name);

}  // namespace perfbench
