#include "llm/cost_model.hpp"

#include <algorithm>
#include <cmath>

namespace llmq::llm {

double CostModel::prefill_flops(std::size_t new_tokens,
                                std::size_t cached_tokens) const {
  if (new_tokens == 0) return 0.0;
  const double t = static_cast<double>(new_tokens);
  const double c0 = static_cast<double>(cached_tokens);
  // Linear layers: 2 FLOPs per parameter per processed token.
  const double linear = 2.0 * model_.params * t;
  // Attention: each new token at position p attends to p+1 positions;
  // 2 (QK^T) + 2 (AV) multiply-accumulates per attended position per
  // attention dim. Sum over positions c0..c0+t-1 ~= t*c0 + t^2/2.
  const double attended = t * c0 + 0.5 * t * t;
  const double attn_dim =
      static_cast<double>(model_.n_heads * model_.head_dim);
  const double attention =
      4.0 * static_cast<double>(model_.n_layers) * attn_dim * attended;
  return linear + attention;
}

double CostModel::prefill_seconds(std::size_t new_tokens,
                                  std::size_t cached_tokens) const {
  return prefill_flops(new_tokens, cached_tokens) / gpu_.total_flops();
}

double CostModel::decode_step_seconds(
    const std::vector<std::size_t>& context_lens) const {
  if (context_lens.empty()) return 0.0;
  double kv_total = 0.0;
  for (std::size_t c : context_lens) kv_total += kv_bytes(c);
  // Bandwidth: weights read once per step (batch-amortized) + all KV.
  const double bytes = model_.weight_bytes() + kv_total;
  const double bw_time = bytes / gpu_.total_bandwidth();
  // Compute: 2*P FLOPs per generated token.
  const double flops =
      2.0 * model_.params * static_cast<double>(context_lens.size());
  const double compute_time = flops / gpu_.total_flops();
  return std::max(bw_time, compute_time);
}

double CostModel::promote_seconds(std::size_t host_blocks,
                                  std::size_t disk_blocks,
                                  std::size_t block_size) const {
  double s = 0.0;
  if (host_blocks > 0)
    s += host_link.latency +
         kv_bytes(host_blocks * block_size) / host_link.bandwidth;
  if (disk_blocks > 0)
    s += disk_link.latency +
         kv_bytes(disk_blocks * block_size) / disk_link.bandwidth;
  return s;
}

std::size_t CostModel::kv_pool_tokens() const {
  const double free_bytes = gpu_.total_memory() - model_.weight_bytes();
  if (free_bytes <= 0.0) return 0;
  return static_cast<std::size_t>(free_bytes / model_.kv_bytes_per_token());
}

std::size_t scaled_kv_pool_blocks(const ModelSpec& model, const GpuSpec& gpu,
                                  std::size_t block_size, double fraction) {
  const CostModel cm(model, gpu);
  const auto derived = static_cast<double>(cm.kv_pool_blocks(block_size));
  const std::size_t floor_blocks = 4096 / block_size;
  return std::max<std::size_t>(
      floor_blocks, static_cast<std::size_t>(derived * fraction));
}

}  // namespace llmq::llm
