#pragma once
// Analytical inference cost model.
//
// Prefill is compute-bound: processing t new tokens costs ~2*P FLOPs per
// token in the linear layers plus attention FLOPs that grow with context
// (the quadratic term the PHC objective's squared lengths approximate).
// Cached prefix tokens skip both — that is the entire mechanism the paper
// exploits. Decode is bandwidth-bound: every step reads the weights once
// for the whole batch plus each sequence's KV cache, so prefix sharing
// also shrinks decode-time memory traffic and admits larger batches.

#include <cstddef>
#include <vector>

#include "llm/gpu_spec.hpp"
#include "llm/model_spec.hpp"

namespace llmq::llm {

class CostModel {
 public:
  CostModel(ModelSpec model, GpuSpec gpu)
      : model_(std::move(model)), gpu_(std::move(gpu)) {}

  const ModelSpec& model() const { return model_; }
  const GpuSpec& gpu() const { return gpu_; }

  /// One interconnect link of the KV tier hierarchy (DESIGN.md §13):
  /// effective bandwidth plus a fixed per-transfer setup latency.
  struct TierLink {
    double bandwidth = 0.0;  // bytes/s
    double latency = 0.0;    // seconds, paid once per transfer batch
  };

  /// KV transfer links for tiered prefix caches. Host ~= PCIe gen4 x16
  /// effective (~25 GB/s); disk ~= a datacenter NVMe read (~3.5 GB/s).
  /// Mutable by benches/tests that sweep the hierarchy.
  TierLink host_link{25.0e9, 50.0e-6};
  TierLink disk_link{3.5e9, 100.0e-6};

  /// Seconds to pull `host_blocks` + `disk_blocks` KV blocks (of
  /// `block_size` tokens each) back into GPU memory — what a lower-tier
  /// prefix hit costs before prefill can reuse it. Each source tier pays
  /// its link latency once plus bytes over bandwidth; 0 when nothing
  /// moved, so flat caches never charge.
  double promote_seconds(std::size_t host_blocks, std::size_t disk_blocks,
                         std::size_t block_size) const;

  /// FLOPs to prefill `new_tokens` given that the sequence already has
  /// `cached_tokens` of context in the KV cache (total length afterwards =
  /// cached_tokens + new_tokens).
  double prefill_flops(std::size_t new_tokens,
                       std::size_t cached_tokens) const;

  /// Seconds to prefill (compute-bound).
  double prefill_seconds(std::size_t new_tokens,
                         std::size_t cached_tokens) const;

  /// Seconds for one decode step of a batch whose sequences have the given
  /// context lengths (prompt + generated so far). max(bandwidth, compute).
  double decode_step_seconds(const std::vector<std::size_t>& context_lens) const;

  /// KV bytes for n tokens.
  double kv_bytes(std::size_t n_tokens) const {
    return model_.kv_bytes_per_token() * static_cast<double>(n_tokens);
  }

  /// KV-pool capacity in tokens after the weights are resident. Zero when
  /// the model does not fit.
  std::size_t kv_pool_tokens() const;

  /// Blocks of `block_size` tokens the pool holds.
  std::size_t kv_pool_blocks(std::size_t block_size) const {
    return kv_pool_tokens() / block_size;
  }

 private:
  ModelSpec model_;
  GpuSpec gpu_;
};

/// KV pool size (in blocks) for a run scaled to `fraction` of the
/// GPU-derived capacity, floored so one long prompt (~4K tokens) always
/// fits. Scaled-down experiments must scale the cache with the data: the
/// paper's regime is a table orders of magnitude larger than KV memory,
/// and an unscaled cache hides the reordering effect. Shared by the batch
/// executor (query::ExecConfig) and the online server (serve::OnlineConfig).
std::size_t scaled_kv_pool_blocks(const ModelSpec& model, const GpuSpec& gpu,
                                  std::size_t block_size, double fraction);

}  // namespace llmq::llm
