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
      pool_(config.capacity_blocks) {
  if (config_.tiers < 1 || config_.tiers > 3)
    throw std::invalid_argument("PrefixCache: tiers must be 1, 2 or 3, got " +
                                std::to_string(config_.tiers));
}

std::size_t PrefixCache::tier_resident_blocks(std::uint8_t tier) const {
  if (tier == 0) return pool_.used();
  return tier == 1 ? host_used_ : disk_used_;
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
  if (tiered()) {
    // Promotion-on-hit: a lower-tier match is pulled back to GPU before
    // the lease hands it out — pinned blocks are always GPU-resident,
    // and the engine prices the transfer the lease reports into TTFT.
    std::size_t host = 0, disk = 0;
    if (promote_pinned_path(lease.path, host, disk, /*cls=*/0))
      lease.cached_tokens = lease.path.size() * config_.block_size;
    lease.promoted_host_blocks = host;
    lease.promoted_disk_blocks = disk;
  }
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
  if (tiered()) return admit_tiered(prompt, lease);
  const std::size_t full_blocks = prompt.size() / config_.block_size;
  const std::size_t path_before = lease.path.size();
  std::size_t need = full_blocks > path_before ? full_blocks - path_before : 0;
  // Make room: evict LRU unpinned leaves; accept a shorter insert if the
  // pool cannot satisfy the full request (everything pinned).
  if (!pool_.unlimited() && need > pool_.free()) {
    evict_tier(0, need - pool_.free());
    need = std::min(need, pool_.free());
  }
  tree_.unpin(lease.path);
  outstanding_pins_ -= lease.path.size();
  std::vector<NodeId> path = acquire_path();
  const std::size_t new_blocks = tree_.insert_into(prompt, clock_, need, path);
  pool_.allocate(new_blocks);
  stats_.inserted_blocks += new_blocks;
  tree_.pin(path);
  outstanding_pins_ += path.size();
  lease.cached_tokens = path.size() * config_.block_size;
  recycle_path(std::move(lease.path));
  lease.path = std::move(path);
  trace(EventKind::CacheAdmit, new_blocks, lease.path.size(), path_before);
  return new_blocks;
}

std::size_t PrefixCache::evict(std::size_t n) {
  // Tiered: the engine wants GPU headroom; cold blocks step down a tier
  // and stay servable instead of dying. Bottom-tier overflow is
  // destroyed inside the rebalance (that is where evicted_blocks grows).
  return tiered() ? demote_gpu(n) : evict_tier(0, n);
}

std::size_t PrefixCache::evict_tier(std::uint8_t tier, std::size_t n) {
  const std::size_t evicted =
      tree_.take_victims(RadixTree::VictimKind::Evict, tier, n);
  if (evicted == 0) return 0;
  if (tier == 0)
    pool_.release(evicted);
  else
    (tier == 1 ? host_used_ : disk_used_) -= evicted;
  stats_.evicted_blocks += evicted;
  trace(EventKind::CacheEvict, evicted, tier, 0);
  return evicted;
}

std::size_t PrefixCache::demote_tier(std::uint8_t tier, std::size_t n) {
  const std::size_t moved =
      tree_.take_victims(RadixTree::VictimKind::Demote, tier, n);
  if (moved == 0) return 0;
  if (tier == 0) {
    pool_.release(moved);
    host_used_ += moved;
  } else {
    host_used_ -= moved;
    disk_used_ += moved;
  }
  stats_.demoted_blocks += moved;
  trace(EventKind::TierDemote, moved, tier + 1, tier);
  return moved;
}

std::size_t PrefixCache::demote_gpu(std::size_t n) {
  const std::size_t demoted = demote_tier(0, n);
  if (demoted > 0) rebalance_lower_tiers();
  return demoted;
}

void PrefixCache::make_gpu_room(std::size_t need) {
  if (pool_.unlimited() || need <= pool_.free()) return;
  demote_gpu(need - pool_.free());
}

void PrefixCache::rebalance_lower_tiers() {
  if (config_.host_capacity_blocks > 0 &&
      host_used_ > config_.host_capacity_blocks) {
    const std::size_t excess = host_used_ - config_.host_capacity_blocks;
    // 3-tier: push host overflow down to disk, oldest first.
    // Host blocks are never pinned (pinned => GPU), so this always
    // clears the full excess. 2-tier: host IS the bottom tier, so the
    // overflow dies for real.
    if (config_.tiers >= 3)
      demote_tier(1, excess);
    else
      evict_tier(1, excess);
  }
  if (config_.tiers >= 3 && config_.disk_capacity_blocks > 0 &&
      disk_used_ > config_.disk_capacity_blocks)
    evict_tier(2, disk_used_ - config_.disk_capacity_blocks);
}

bool PrefixCache::promote_pinned_path(std::vector<NodeId>& path,
                                      std::size_t& host, std::size_t& disk,
                                      std::uint8_t cls) {
  host = 0;
  disk = 0;
  tree_.count_tiered(path, host, disk);
  const std::size_t lower = host + disk;
  if (lower == 0) return false;
  // The path is already pinned, which is what keeps make_gpu_room's
  // demotions and evictions away from it: no node on it changes tier
  // here, so the counts above stay exact for the untruncated path.
  make_gpu_room(lower);
  bool truncated = false;
  if (!pool_.unlimited() && pool_.free() < lower) {
    // Pin-saturated GPU pool: keep the longest prefix whose lower-tier
    // blocks fit, unpin and drop the tail — the request recomputes those
    // tokens instead of reading them back. Recount over the kept prefix.
    const std::size_t free = pool_.free();
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
    pool_.allocate(host + disk);
    host_used_ -= host;
    disk_used_ -= disk;
    stats_.promoted_blocks += host + disk;
    trace(EventKind::TierPromote, host, disk, path.size(), cls);
  }
  return truncated;
}

std::size_t PrefixCache::admit_tiered(std::span<const TokenId> prompt,
                                      CacheLease& lease) {
  const std::size_t path_before = lease.path.size();
  // Drop the lookup lease and re-match fresh: another request may have
  // grown (or demotion may have cooled) the matched prefix since.
  tree_.unpin(lease.path);
  outstanding_pins_ -= lease.path.size();
  std::vector<NodeId> path = acquire_path();
  tree_.match_into(prompt, path);
  tree_.touch(path, clock_);
  tree_.pin(path);
  outstanding_pins_ += path.size();
  // Refresh-promote the matched prefix BEFORE inserting new children:
  // inserting GPU-born children under a demoted (lower-tier) parent
  // would break tier monotonicity, and pinning a lower-tier node breaks
  // pinned => GPU-resident. Prefill just recomputed every prompt token
  // on-GPU, so this promotion is a free refresh (cls=1), not a priced
  // transfer.
  std::size_t host = 0, disk = 0;
  const bool truncated = promote_pinned_path(path, host, disk, /*cls=*/1);
  std::size_t new_blocks = 0;
  if (!truncated) {
    const std::size_t full_blocks = prompt.size() / config_.block_size;
    std::size_t need =
        full_blocks > path.size() ? full_blocks - path.size() : 0;
    if (need > 0) {
      make_gpu_room(need);
      if (!pool_.unlimited()) need = std::min(need, pool_.free());
      tree_.unpin(path);
      outstanding_pins_ -= path.size();
      std::vector<NodeId> full_path = acquire_path();
      new_blocks = tree_.insert_into(prompt, clock_, need, full_path);
      pool_.allocate(new_blocks);
      stats_.inserted_blocks += new_blocks;
      tree_.pin(full_path);
      outstanding_pins_ += full_path.size();
      recycle_path(std::move(path));
      path = std::move(full_path);
    }
  }
  lease.cached_tokens = path.size() * config_.block_size;
  recycle_path(std::move(lease.path));
  lease.path = std::move(path);
  trace(EventKind::CacheAdmit, new_blocks, lease.path.size(), path_before);
  return new_blocks;
}

std::size_t PrefixCache::admit_migrated(std::span<const TokenId> tokens) {
  if (!config_.enabled) return 0;
  ++clock_;
  std::vector<NodeId> path = acquire_path();
  tree_.match_into(tokens, path);
  tree_.touch(path, clock_);
  if (tiered()) {
    // Same monotonicity hazard as admit(): refresh-promote the matched
    // prefix before hanging new GPU blocks under it. The migrated bytes
    // landed in GPU memory either way (cls=1: not a priced transfer —
    // the fleet already charged the inter-replica copy).
    tree_.pin(path);
    outstanding_pins_ += path.size();
    std::size_t host = 0, disk = 0;
    const bool truncated = promote_pinned_path(path, host, disk, /*cls=*/1);
    tree_.unpin(path);
    outstanding_pins_ -= path.size();
    if (truncated) {  // pin-saturated pool: nothing more fits
      recycle_path(std::move(path));
      return 0;
    }
  }
  const std::size_t full_blocks = tokens.size() / config_.block_size;
  std::size_t need = full_blocks > path.size() ? full_blocks - path.size() : 0;
  std::size_t new_blocks = 0;
  if (need > 0) {
    if (tiered())
      make_gpu_room(need);
    else if (!pool_.unlimited() && need > pool_.free())
      evict_tier(0, need - pool_.free());
    if (!pool_.unlimited()) need = std::min(need, pool_.free());
    std::vector<NodeId> full_path = acquire_path();
    new_blocks = tree_.insert_into(tokens, clock_, need, full_path);
    pool_.allocate(new_blocks);
    stats_.inserted_blocks += new_blocks;
    recycle_path(std::move(full_path));
  }
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
  const std::size_t gpu = tree_.tier_blocks(0);
  const std::size_t host = tree_.tier_blocks(1);
  const std::size_t disk = tree_.tier_blocks(2);
  // Tier ledger: every resident block lives in exactly one tier, the
  // per-tier walked totals match the pool/counter accounting, and a flat
  // cache never grows lower-tier blocks.
  if (gpu + host + disk != resident)
    return "tier totals do not sum to resident blocks";
  if (gpu != pool_.used())
    return "GPU tier ledger out of sync with pool usage";
  if (host != host_used_)
    return "host tier ledger out of sync with host_used_";
  if (disk != disk_used_)
    return "disk tier ledger out of sync with disk_used_";
  if (!tiered() && host + disk > 0)
    return "flat cache holds lower-tier blocks";
  if (config_.tiers < 3 && disk > 0)
    return "disk blocks without a disk tier";
  if (tiered() && config_.host_capacity_blocks > 0 &&
      host > config_.host_capacity_blocks)
    return "host tier over capacity";
  if (tiered() && config_.disk_capacity_blocks > 0 &&
      disk > config_.disk_capacity_blocks)
    return "disk tier over capacity";
  if (stats_.inserted_blocks - stats_.evicted_blocks != resident)
    return "inserted - evicted does not equal resident blocks";
  if (!pool_.unlimited() && pool_.used() > pool_.capacity())
    return "pool over capacity";
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
