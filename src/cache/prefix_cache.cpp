#include "cache/prefix_cache.hpp"

#include <algorithm>
#include <stdexcept>
#include <string>

namespace llmq::cache {

// Tripwire: growing CacheStats without extending the accumulate/delta
// helpers below makes the new counter silently disappear from every
// per-session and fleet-aggregate report. If this assert fires, add the
// field to BOTH operators (and to the coverage test in tests/cache),
// then update the expected size.
static_assert(sizeof(CacheStats) == 7 * sizeof(std::uint64_t),
              "CacheStats changed: update operator+=/-= and tests/cache");

CacheStats& CacheStats::operator+=(const CacheStats& o) {
  lookups += o.lookups;
  hit_tokens += o.hit_tokens;
  lookup_tokens += o.lookup_tokens;
  inserted_blocks += o.inserted_blocks;
  evicted_blocks += o.evicted_blocks;
  demoted_blocks += o.demoted_blocks;
  promoted_blocks += o.promoted_blocks;
  return *this;
}

CacheStats& CacheStats::operator-=(const CacheStats& o) {
  lookups -= o.lookups;
  hit_tokens -= o.hit_tokens;
  lookup_tokens -= o.lookup_tokens;
  inserted_blocks -= o.inserted_blocks;
  evicted_blocks -= o.evicted_blocks;
  demoted_blocks -= o.demoted_blocks;
  promoted_blocks -= o.promoted_blocks;
  return *this;
}

PrefixCache::PrefixCache(CacheConfig config)
    : config_(config),
      tree_(config.block_size),
      cap_{config.capacity_blocks, config.host_capacity_blocks,
           config.disk_capacity_blocks} {
  if (config_.tiers < 1 || config_.tiers > 3)
    throw std::invalid_argument("PrefixCache: tiers must be 1, 2 or 3, got " +
                                std::to_string(config_.tiers));
}

void PrefixCache::allocate_gpu(std::size_t n) {
  if (n > gpu_free())
    throw std::runtime_error("PrefixCache: GPU tier out of blocks");
  used_[0] += n;
}

void PrefixCache::release_blocks(std::uint8_t tier, std::size_t n) {
  if (n > used_[tier])
    throw std::logic_error("PrefixCache: tier ledger underflow");
  used_[tier] -= n;
}

std::vector<NodeId> PrefixCache::acquire_path() {
  if (path_pool_.empty()) return {};
  std::vector<NodeId> v = std::move(path_pool_.back());
  path_pool_.pop_back();
  v.clear();
  return v;
}

void PrefixCache::recycle_path(std::vector<NodeId>&& path) {
  if (path.capacity() > 0) path_pool_.push_back(std::move(path));
}

CacheLease PrefixCache::pinning_match(std::span<const TokenId> prompt) {
  CacheLease lease;
  lease.path = acquire_path();
  lease.cached_tokens = tree_.match_into(prompt, lease.path);
  tree_.touch(lease.path, clock_);
  tree_.pin(lease.path);
  outstanding_pins_ += lease.path.size();
  // Promotion-on-hit: a lower-tier match is pulled back to GPU before the
  // lease hands it out — pinned blocks are always GPU-resident, and the
  // engine prices the transfer the lease reports into TTFT.
  if (promote_pinned_path(lease.path, lease.promoted_host_blocks,
                          lease.promoted_disk_blocks, /*cls=*/0))
    lease.cached_tokens = lease.path.size() * config_.block_size;
  return lease;
}

CacheLease PrefixCache::lookup(std::span<const TokenId> prompt) {
  ++clock_;
  // A disabled cache must not register lookup traffic: the stats feed
  // hit-rate denominators, and the "No Cache" ablation arm reads them.
  if (!config_.enabled) return CacheLease{};
  ++stats_.lookups;
  stats_.lookup_tokens += prompt.size();
  CacheLease lease = pinning_match(prompt);
  stats_.hit_tokens += lease.cached_tokens;
  trace(EventKind::CacheLookup, prompt.size(), lease.cached_tokens,
        lease.path.size());
  return lease;
}

CacheLease PrefixCache::resume_lookup(std::span<const TokenId> prompt) {
  ++clock_;
  if (!config_.enabled) return CacheLease{};
  // Pin + touch only: the resuming request's lookup stats were counted at
  // first admission and must not count again.
  CacheLease lease = pinning_match(prompt);
  trace(EventKind::CacheLookup, prompt.size(), lease.cached_tokens,
        lease.path.size(), /*cls=*/1);
  return lease;
}

std::size_t PrefixCache::peek(std::span<const TokenId> prompt) const {
  if (!config_.enabled) return 0;
  return tree_.match_tokens(prompt);
}

TierPeek PrefixCache::peek_tiers(std::span<const TokenId> prompt) const {
  TierPeek out;
  if (!config_.enabled) return out;
  tree_.match_tier_tokens(prompt, out.gpu_tokens, out.host_tokens,
                          out.disk_tokens);
  return out;
}

std::size_t PrefixCache::admit(std::span<const TokenId> prompt,
                               CacheLease& lease) {
  if (!config_.enabled) return 0;
  ++clock_;
  const std::size_t path_before = lease.path.size();
  // Drop the lookup lease and re-match fresh: another request may have
  // grown (or demotion may have cooled) the matched prefix since, and an
  // insert sized from the stale lease would free room for blocks that
  // are already resident.
  tree_.unpin(lease.path);
  outstanding_pins_ -= lease.path.size();
  std::vector<NodeId> path = acquire_path();
  tree_.match_into(prompt, path);
  tree_.touch(path, clock_);
  tree_.pin(path);
  outstanding_pins_ += path.size();
  // Prefill just recomputed every prompt token on-GPU, so the match's
  // refresh-promotion is free, not a priced transfer.
  const std::size_t new_blocks = insert_past_match(prompt, path);
  tree_.pin(std::span<const NodeId>(path).last(new_blocks));
  outstanding_pins_ += new_blocks;
  lease.cached_tokens = path.size() * config_.block_size;
  recycle_path(std::move(lease.path));
  lease.path = std::move(path);
  trace(EventKind::CacheAdmit, new_blocks, lease.path.size(), path_before);
  return new_blocks;
}

std::size_t PrefixCache::insert_past_match(std::span<const TokenId> tokens,
                                           std::vector<NodeId>& path) {
  // Refresh-promote the match BEFORE inserting new children: inserting
  // GPU-born children under a demoted (lower-tier) parent would break
  // tier monotonicity, and pinning a lower-tier node breaks pinned =>
  // GPU-resident.
  std::size_t host = 0, disk = 0;
  if (promote_pinned_path(path, host, disk, /*cls=*/1)) return 0;
  const std::size_t full_blocks = tokens.size() / config_.block_size;
  if (full_blocks <= path.size()) return 0;
  // The pinned match survives make_gpu_room, so the new blocks hang under
  // its end. Accept a shorter insert when the GPU cannot free the full
  // request (everything left is pinned).
  const std::size_t matched = path.size();
  make_gpu_room(full_blocks - matched);
  const std::size_t new_blocks = tree_.extend_into(
      tokens, clock_, std::min(full_blocks - matched, gpu_free()), path);
  allocate_gpu(new_blocks);
  stats_.inserted_blocks += new_blocks;
  return new_blocks;
}

std::size_t PrefixCache::evict(std::size_t n) { return free_blocks(0, n); }

std::size_t PrefixCache::free_blocks(std::uint8_t tier, std::size_t n) {
  const std::uint8_t below = tier + 1;
  const bool bottom = below == config_.tiers;
  const std::size_t taken = tree_.take_victims(
      bottom ? RadixTree::VictimKind::Evict : RadixTree::VictimKind::Demote,
      tier, n);
  if (taken == 0) return 0;
  release_blocks(tier, taken);
  if (bottom) {
    stats_.evicted_blocks += taken;
    trace(EventKind::CacheEvict, taken, tier, 0);
    return taken;
  }
  used_[below] += taken;
  stats_.demoted_blocks += taken;
  trace(EventKind::TierDemote, taken, below, tier);
  // Host and disk blocks are never pinned (pinned => GPU), so this
  // always clears the tier below's full overflow.
  if (cap_[below] > 0 && used_[below] > cap_[below])
    free_blocks(below, used_[below] - cap_[below]);
  return taken;
}

void PrefixCache::make_gpu_room(std::size_t need) {
  if (need > gpu_free()) free_blocks(0, need - gpu_free());
}

bool PrefixCache::promote_pinned_path(std::vector<NodeId>& path,
                                      std::size_t& host, std::size_t& disk,
                                      std::uint8_t cls) {
  host = 0;
  disk = 0;
  if (!tiered()) return false;
  tree_.count_tiered(path, host, disk);
  const std::size_t lower = host + disk;
  if (lower == 0) return false;
  // The path is already pinned, which is what keeps make_gpu_room's
  // demotions and evictions away from it: no node on it changes tier
  // here, so the counts above stay exact for the untruncated path.
  make_gpu_room(lower);
  bool truncated = false;
  if (gpu_free() < lower) {
    // Pin-saturated GPU: keep the longest prefix whose lower-tier blocks
    // fit, unpin and drop the tail — the request recomputes those tokens
    // instead of reading them back. Recount over the kept prefix.
    const std::size_t free = gpu_free();
    host = 0;
    disk = 0;
    std::size_t keep = 0;
    for (NodeId id : path) {
      const std::uint8_t tier = tree_.node_tier(id);
      if (tier != 0 && host + disk == free) break;
      host += (tier == 1);
      disk += (tier == 2);
      ++keep;
    }
    tree_.unpin(std::span<const NodeId>(path.data() + keep,
                                        path.size() - keep));
    outstanding_pins_ -= path.size() - keep;
    path.resize(keep);
    truncated = true;
  }
  if (host + disk > 0) {
    tree_.promote_path(path);
    allocate_gpu(host + disk);
    release_blocks(1, host);
    release_blocks(2, disk);
    stats_.promoted_blocks += host + disk;
    trace(EventKind::TierPromote, host, disk, path.size(), cls);
  }
  return truncated;
}

std::size_t PrefixCache::admit_migrated(std::span<const TokenId> tokens) {
  if (!config_.enabled) return 0;
  ++clock_;
  std::vector<NodeId> path = acquire_path();
  tree_.match_into(tokens, path);
  tree_.touch(path, clock_);
  tree_.pin(path);
  outstanding_pins_ += path.size();
  // The migrated bytes landed in GPU memory either way, so the match's
  // refresh-promotion is not a priced transfer: the fleet already charged
  // the inter-replica copy.
  const std::size_t new_blocks = insert_past_match(tokens, path);
  const std::size_t matched = path.size() - new_blocks;
  tree_.unpin(std::span<const NodeId>(path).first(matched));
  outstanding_pins_ -= matched;
  recycle_path(std::move(path));
  // No CacheLookup/CacheAdmit events and no hit credit: migrated
  // prefixes must never read as prefix hits (the fleet's PrefixMigrate
  // event is the observable), and the audit's pin-balance rules only
  // cover lease traffic.
  return new_blocks;
}

PrefixCache::MigrationBatch PrefixCache::begin_migration(
    std::size_t max_blocks) {
  MigrationBatch batch;
  if (!config_.enabled || max_blocks == 0) return batch;
  ++clock_;
  std::vector<NodeId> leaves, nodes;
  tree_.hottest_leaves(max_blocks, leaves);
  for (NodeId leaf : leaves) {
    if (batch.blocks >= max_blocks) break;
    tree_.path_nodes(leaf, nodes);
    // Donor pins must stay GPU-only (pinned => GPU-resident), so the
    // prefix is cut at the first lower-tier node — migration streams the
    // hot GPU-resident part; the cold tail stays where it is.
    std::size_t keep = 0;
    for (NodeId id : nodes) {
      if (tree_.node_tier(id) != 0) break;
      ++keep;
    }
    nodes.resize(keep);
    if (nodes.empty()) continue;
    CacheLease lease;
    lease.path = acquire_path();
    lease.path.assign(nodes.begin(), nodes.end());
    lease.cached_tokens = nodes.size() * config_.block_size;
    tree_.pin(lease.path);
    outstanding_pins_ += lease.path.size();
    tokenizer::TokenSeq toks;
    tree_.path_tokens(nodes.back(), toks);
    batch.blocks += lease.path.size();
    batch.prefixes.push_back(std::move(toks));
    batch.leases.push_back(std::move(lease));
  }
  return batch;
}

void PrefixCache::end_migration(MigrationBatch& batch) {
  if (!config_.enabled) return;
  for (CacheLease& lease : batch.leases) {
    tree_.unpin(lease.path);
    outstanding_pins_ -= lease.path.size();
    recycle_path(std::move(lease.path));
  }
  batch.leases.clear();
  batch.prefixes.clear();
  batch.blocks = 0;
}

void PrefixCache::release(CacheLease& lease) {
  if (!config_.enabled) return;
  tree_.unpin(lease.path);
  outstanding_pins_ -= lease.path.size();
  trace(EventKind::CacheRelease, lease.path.size(), 0, 0);
  recycle_path(std::move(lease.path));
  lease.path = std::vector<NodeId>();  // moved-from: restore a defined empty
  lease.cached_tokens = 0;
  lease.promoted_host_blocks = 0;
  lease.promoted_disk_blocks = 0;
}

void PrefixCache::cancel_lookup(CacheLease& lease, std::size_t prompt_tokens) {
  if (!config_.enabled) return;
  --stats_.lookups;
  stats_.lookup_tokens -= prompt_tokens;
  stats_.hit_tokens -= lease.cached_tokens;
  // Stat-undo only; the release below emits the CacheRelease that
  // balances this lease's pins (one unpin record, never two).
  trace(EventKind::CacheCancelLookup, prompt_tokens, lease.cached_tokens, 0);
  release(lease);
}

std::string PrefixCache::check_invariants() const {
  std::string tree = tree_.check_invariants();
  if (!tree.empty()) return "tree: " + tree;
  const std::size_t resident = tree_.num_blocks();
  const std::uint64_t pins = tree_.total_ref_count();
  // Tier ledger: every resident block lives in exactly one tier, each
  // tier's walked total matches its ledger and fits its capacity, and no
  // block lives below the bottom tier.
  std::size_t sum = 0;
  for (std::uint8_t tier = 0; tier < used_.size(); ++tier) {
    const std::size_t walked = tree_.tier_blocks(tier);
    const std::string name = "tier " + std::to_string(tier);
    if (walked != used_[tier]) return name + " ledger out of sync with the tree";
    if (tier >= config_.tiers && walked > 0)
      return name + " holds blocks below the bottom tier";
    if (cap_[tier] > 0 && walked > cap_[tier]) return name + " over capacity";
    sum += walked;
  }
  if (sum != resident) return "tier totals do not sum to resident blocks";
  if (stats_.inserted_blocks - stats_.evicted_blocks != resident)
    return "inserted - evicted does not equal resident blocks";
  if (pins != outstanding_pins_)
    return "tree pin count out of sync with outstanding leases";
  return std::string();
}

std::size_t PrefixCache::blocks_needed(std::size_t n_tokens,
                                       std::size_t cached_tokens) const {
  const std::size_t full = n_tokens / config_.block_size;
  const std::size_t have = cached_tokens / config_.block_size;
  return full > have ? full - have : 0;
}

}  // namespace llmq::cache
