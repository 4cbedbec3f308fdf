#pragma once
// Inference requests, priority classes, and per-request results.

#include <cstddef>
#include <cstdint>
#include <string>

#include "tokenizer/tokenizer.hpp"

namespace llmq::llm {

/// Scheduling class of a request. Lower value = more urgent. Interactive
/// rows are latency-critical (a user is waiting on TTFT), Standard is the
/// default, Batch is throughput traffic (analytics scans) that tolerates
/// delay. The engine admits strictly by class (ties FIFO) and — when
/// preemption is enabled — lets an admitted higher class evict the
/// lowest-class running request when KV blocks or batch slots are short.
enum class PriorityClass : std::uint8_t {
  Interactive = 0,
  Standard = 1,
  Batch = 2,
};

inline constexpr std::size_t kNumPriorityClasses = 3;

std::string to_string(PriorityClass c);

/// Anti-starvation aging: a request that has waited `waited_seconds` is
/// promoted one class per full `aging_seconds` elapsed, clamped at
/// Interactive. `aging_seconds <= 0` disables aging (returns `base`).
/// With aging on, every Batch request eventually competes as Interactive,
/// where nothing can preempt it and FIFO tie-breaking (it has the oldest
/// sequence number) admits it first — the eventual-completion guarantee
/// the preemption property tests pin.
PriorityClass aged_class(PriorityClass base, double waited_seconds,
                         double aging_seconds);

struct Request {
  std::uint64_t id = 0;
  tokenizer::TokenSeq prompt;
  std::size_t output_tokens = 1;  // decode length (known for simulation)
  /// Opaque tag the caller can use to map results back to table rows.
  std::uint64_t row_tag = 0;
  /// Scheduling class (see PriorityClass). Standard preserves the classic
  /// FIFO admission behavior when every request carries it.
  PriorityClass priority = PriorityClass::Standard;
  /// Predicted decode length (serve::LengthPredictor). 0 = no prediction;
  /// with EngineConfig::spjf set, nonzero predictions order admission
  /// within an effective priority class (shortest first, ties FIFO). The
  /// engine never reads output_tokens for scheduling — the simulation's
  /// oracle length stays hidden from the policy, like a real server.
  std::size_t predicted_output_tokens = 0;
};

struct RequestResult {
  std::uint64_t id = 0;
  std::uint64_t row_tag = 0;
  std::size_t prompt_tokens = 0;
  std::size_t cached_tokens = 0;    // prompt tokens served from KV cache
  std::size_t computed_tokens = 0;  // prompt tokens actually prefilled
  std::size_t output_tokens = 0;
  double admit_time = 0.0;          // simulated seconds (post-prefill)
  double first_token_time = 0.0;    // end of the decode step emitting token 1
  double finish_time = 0.0;
  PriorityClass priority = PriorityClass::Standard;
  /// Times this request was preempted (KV released, later resumed).
  std::size_t preemptions = 0;
  /// Prefill tokens spent replaying this request after preemption: the
  /// prompt suffix the cache no longer covered plus its already-generated
  /// tokens. Zero when never preempted. Kept separate from
  /// cached/computed_tokens, which describe the FIRST admission only, so
  /// prompt accounting stays exactly-once across preempt/resume cycles.
  std::uint64_t recomputed_tokens = 0;
};

}  // namespace llmq::llm
