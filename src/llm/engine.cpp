#include "llm/engine.hpp"

#include "llm/engine_session.hpp"

namespace llmq::llm {

ServingEngine::ServingEngine(CostModel cost, EngineConfig config)
    : cost_(std::move(cost)), config_(config) {
  pool_blocks_ = config_.kv_pool_blocks_override
                     ? config_.kv_pool_blocks_override
                     : cost_.kv_pool_blocks(config_.block_size);
}

cache::PrefixCache ServingEngine::make_session_cache() const {
  // Cache holds the shared prompt blocks; the engine enforces the global
  // KV budget over cached + per-request private blocks, driving eviction.
  cache::CacheConfig cc;
  cc.block_size = config_.block_size;
  cc.capacity_blocks = 0;  // engine-enforced budget
  cc.enabled = config_.cache_enabled;
  cc.tiers = config_.cache_tiers;
  cc.host_capacity_blocks = config_.host_capacity_blocks;
  cc.disk_capacity_blocks = config_.disk_capacity_blocks;
  return cache::PrefixCache(cc);
}

BatchRunResult ServingEngine::run(const std::vector<Request>& requests) {
  cache::PrefixCache cache = make_session_cache();
  return run(requests, cache);
}

BatchRunResult ServingEngine::run(const std::vector<Request>& requests,
                                  cache::PrefixCache& cache) {
  // A whole-batch job is the degenerate online session: everything is
  // submitted at t=0 and the session steps to completion. submit() copies
  // each request — the session must own its requests because the online
  // path materializes them from a stream; for batch runs that is one
  // prompt-vector copy per request, noise next to planning + simulation.
  EngineSession session(*this, cache);
  for (const auto& r : requests) session.submit(r);
  BatchRunResult out;
  out.results = session.drain();
  out.metrics = session.metrics();
  return out;
}

}  // namespace llmq::llm
