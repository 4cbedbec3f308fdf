#pragma once
// Discrete-event LLM serving engine with continuous batching and prompt
// prefix caching — the simulated stand-in for vLLM in the paper's setup
// (see DESIGN.md §1 for the substitution argument).
//
// Mechanics modeled:
//  * requests admitted in schedule order while KV memory and batch slots
//    allow (admission reserves the whole sequence: prompt + max output);
//  * admitted requests prefill only their *uncached* prompt suffix
//    (compute-bound, quadratic attention term included);
//  * one token per running request per decode step (bandwidth-bound,
//    weights read once per step for the whole batch);
//  * prompt KV blocks are shared through the radix-tree PrefixCache, so
//    shared prefixes cost memory once — sharing increases the admissible
//    batch size, which is the second-order win the paper reports for
//    memory-constrained models;
//  * completed requests free their private blocks; shared prefix blocks
//    stay cached until evicted by LRU.

#include <cstdint>
#include <vector>

#include "cache/prefix_cache.hpp"
#include "llm/cost_model.hpp"
#include "llm/request.hpp"

namespace llmq::llm {

struct EngineConfig {
  std::size_t max_batch_size = 32;  // paper §2: batching up to 32 requests
  std::size_t block_size = 16;
  bool cache_enabled = true;        // false = the "No Cache" arm
  /// Cap on KV pool blocks; 0 = derive from GPU memory minus weights.
  std::size_t kv_pool_blocks_override = 0;

  /// Prefix-cache tier hierarchy (cache::CacheConfig::tiers). 1 = flat
  /// GPU-only cache, bit-exact to the pre-tier build. 2 adds a host-DRAM
  /// tier, 3 adds disk below it: GPU pressure demotes cold blocks down
  /// instead of destroying them, a lower-tier hit is promoted back before
  /// reuse, and the admission charges CostModel::promote_seconds into
  /// TTFT (DESIGN.md §13).
  std::size_t cache_tiers = 1;
  /// Host / disk tier capacities in blocks; 0 = unlimited. Only read when
  /// the corresponding tier exists.
  std::size_t host_capacity_blocks = 0;
  std::size_t disk_capacity_blocks = 0;

  /// Priority preemption (vLLM-style recompute mode): when the
  /// highest-priority admissible request is blocked on KV blocks or batch
  /// slots, the session may evict the lowest-effective-class running
  /// request (strictly below the candidate's class), releasing its KV and
  /// re-queueing it; resume replays prefill through the prefix cache.
  /// Admission is ALWAYS strict-priority (ties FIFO) — with uniform
  /// priorities that is plain FIFO, so this flag only gates eviction.
  bool preemption = false;
  /// Anti-starvation aging horizon (seconds of waiting per one-class
  /// promotion; see llm::aged_class). 0 disables aging. Applies to both
  /// admission order and preemption-victim selection.
  double priority_aging_seconds = 0.0;

  /// Chunked prefill (Sarathi/vLLM-style continuous batching). 0 =
  /// monolithic admission prefill: an admission runs its ENTIRE uncached
  /// prompt prefill before the next decode step, so every running
  /// request's next token stalls behind it — bit-exactly the historical
  /// behavior. > 0 = an admission enters a prefill phase instead and each
  /// step() interleaves prefill chunks of at most this many tokens with
  /// one decode token for decode-phase requests, bounding the stall any
  /// decode sits through. Newly completed chunks admit() into the prefix
  /// cache at block-aligned boundaries, so a long prompt becomes reusable
  /// by followers while it is still prefilling.
  std::size_t prefill_chunk_tokens = 0;
  /// Total prefill tokens step() may spend across ALL prefill-phase
  /// requests per step (each request still capped at
  /// prefill_chunk_tokens, one chunk per request per step). 0 = same as
  /// prefill_chunk_tokens, i.e. one chunk per step. Ignored when
  /// prefill_chunk_tokens == 0.
  std::size_t step_token_budget = 0;

  /// Shortest-predicted-job-first admission: within the best effective
  /// priority class, admit the pending request with the smallest
  /// Request::predicted_output_tokens (ties FIFO by sequence) instead of
  /// strict FIFO. Class order and aging are unchanged — SPJF only
  /// reorders inside one effective class, so aging still promotes a
  /// starved request out of the contested class. When every prediction
  /// is 0 (predictor disabled) the order degenerates to exact FIFO,
  /// bit-identical to spjf == false.
  bool spjf = false;
};

struct EngineMetrics {
  double total_seconds = 0.0;
  double prefill_seconds = 0.0;
  double decode_seconds = 0.0;
  std::uint64_t prompt_tokens = 0;
  std::uint64_t cached_prompt_tokens = 0;
  std::uint64_t computed_prompt_tokens = 0;
  std::uint64_t output_tokens = 0;
  std::uint64_t decode_steps = 0;
  double sum_batch_size = 0.0;  // decode-phase requests, over decode steps
  /// Peak concurrent admitted requests (includes prefill-phase requests
  /// under chunking; equals the peak decode batch when chunking is off).
  std::size_t peak_batch_size = 0;
  /// Preemption accounting. prompt/cached/computed counters above stay
  /// exactly-once per request (first admission); replay work after a
  /// preemption is booked here instead, so
  ///   total prefill work = computed_prompt_tokens + recompute_prefill_tokens.
  std::uint64_t preemptions = 0;
  std::uint64_t recompute_prefill_tokens = 0;
  double recompute_prefill_seconds = 0.0;  // included in prefill_seconds
  /// Chunked-prefill accounting: chunk executions and the tokens they
  /// processed. Each chunk's tokens split by prompt position: positions
  /// prefilled for the first time book computed_prompt_tokens (exactly
  /// once per position across preempt/resume cycles, so
  /// cached + computed == prompt holds even under preemption); re-covered
  /// positions and generated-token replay book the recompute counters.
  /// chunked_prefill_tokens is the union, so with chunking on:
  ///   chunked_prefill_tokens ==
  ///       computed_prompt_tokens + recompute_prefill_tokens.
  std::uint64_t prefill_chunks = 0;
  std::uint64_t chunked_prefill_tokens = 0;
  /// Longest clock advance a decode-phase request sat through in one
  /// step() — the worst gap between two consecutive tokens of any running
  /// request. Monolithic admission prefill shows up here as multi-second
  /// stalls under long-prompt traffic; chunking bounds it.
  double max_decode_stall_seconds = 0.0;
  /// Tiered-cache promotion pricing (always 0 on a flat cache): blocks a
  /// lookup pulled back from the host / disk tier, and the transfer time
  /// admissions charged into the clock (hence into TTFT) for them. The
  /// cache's own promoted_blocks counter additionally includes free
  /// recompute refreshes; these fields are the PRICED subset.
  std::uint64_t promoted_host_blocks = 0;
  std::uint64_t promoted_disk_blocks = 0;
  double promote_seconds = 0.0;
  cache::CacheStats cache;

  double prompt_cache_hit_rate() const {
    return prompt_tokens ? static_cast<double>(cached_prompt_tokens) /
                               static_cast<double>(prompt_tokens)
                         : 0.0;
  }
  double mean_batch_size() const {
    return decode_steps ? sum_batch_size / static_cast<double>(decode_steps)
                        : 0.0;
  }
};

struct BatchRunResult {
  std::vector<RequestResult> results;  // completion order
  EngineMetrics metrics;
};

class ServingEngine {
 public:
  ServingEngine(CostModel cost, EngineConfig config);

  /// Run a whole batch job: requests are issued in the given order (the
  /// order is the paper's optimization variable). Returns per-request
  /// results and aggregate metrics. The engine is reusable; each run
  /// starts with a cold cache.
  BatchRunResult run(const std::vector<Request>& requests);

  /// Incremental execution (online serving) uses EngineSession
  /// (engine_session.hpp); run() is the submit-everything-then-drain
  /// special case of that state machine.
  ///
  /// Run against a caller-owned cache, which persists across calls — the
  /// paper's multi-LLM queries hit one long-lived server, so the second
  /// invocation can reuse blocks the first left behind. The cache must
  /// have been created with this engine's block size; its own capacity
  /// should be unlimited (the engine enforces the KV budget).
  BatchRunResult run(const std::vector<Request>& requests,
                     cache::PrefixCache& cache);

  /// A cache suitable for session use with this engine. `lock_stripes`
  /// follows CacheConfig: 0 (the default) builds the single-threaded,
  /// lock-free cache; S > 0 builds a thread-safe striped cache (the
  /// threaded fleet's default, serve/threaded_fleet.hpp).
  cache::PrefixCache make_session_cache(std::size_t lock_stripes = 0) const;

  const CostModel& cost_model() const { return cost_; }
  const EngineConfig& config() const { return config_; }
  /// KV pool capacity in blocks actually used for runs.
  std::size_t kv_pool_blocks() const { return pool_blocks_; }

 private:
  CostModel cost_;
  EngineConfig config_;
  std::size_t pool_blocks_ = 0;
};

}  // namespace llmq::llm
