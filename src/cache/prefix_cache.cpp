#include "cache/prefix_cache.hpp"

#include <algorithm>
#include <stdexcept>
#include <string>

#include "util/token_ops.hpp"

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
    : config_(config), pool_(config.capacity_blocks) {
  if (config_.tiers < 1 || config_.tiers > 3)
    throw std::invalid_argument("PrefixCache: tiers must be 1, 2 or 3, got " +
                                std::to_string(config_.tiers));
  const std::size_t n_trees =
      config_.lock_stripes > 0 ? config_.lock_stripes : 1;
  trees_.reserve(n_trees);
  for (std::size_t i = 0; i < n_trees; ++i)
    trees_.emplace_back(config_.block_size);
  if (config_.lock_stripes > 0)
    locks_ = std::make_unique<LockState>(config_.lock_stripes);
}

std::uint32_t PrefixCache::stripe_of(std::span<const TokenId> prompt) const {
  if (trees_.size() == 1) return 0;
  // Vectorized hash over the first (root) token block. Prompts can only
  // share tree structure below the root when they share their entire
  // first block, so hashing exactly that block guarantees related prompts
  // land on the same stripe; unrelated prompts that collide merely
  // coexist as distinct root children of the same per-stripe tree,
  // exactly as they would in one tree. Striped == unstriped behavior
  // holds for ANY stripe hash (the tests pin it), so swapping the scalar
  // FNV for token_ops::hash changed no observable.
  const std::size_t n = std::min(prompt.size(), config_.block_size);
  const std::uint64_t h = util::token_ops::hash(prompt.data(), n);
  return static_cast<std::uint32_t>(h % trees_.size());
}

std::unique_lock<std::mutex> PrefixCache::lock_stripe(std::uint32_t s) const {
  if (!locks_) return std::unique_lock<std::mutex>();
  return std::unique_lock<std::mutex>(locks_->stripe_mu[s]);
}

std::unique_lock<std::mutex> PrefixCache::lock_acct() const {
  if (!locks_) return std::unique_lock<std::mutex>();
  return std::unique_lock<std::mutex>(locks_->acct_mu);
}

CacheStats PrefixCache::stats() const {
  auto acct = lock_acct();
  return stats_;
}

std::size_t PrefixCache::resident_blocks() const {
  auto all = lock_all_stripes();
  std::size_t n = 0;
  for (const RadixTree& t : trees_) n += t.num_blocks();
  return n;
}

std::size_t PrefixCache::gpu_resident_blocks() const {
  auto acct = lock_acct();
  return pool_.used();
}

std::size_t PrefixCache::tier_resident_blocks(std::uint8_t tier) const {
  auto acct = lock_acct();
  if (tier == 0) return pool_.used();
  return tier == 1 ? host_used_ : disk_used_;
}

std::size_t PrefixCache::pinned_blocks() const {
  auto all = lock_all_stripes();
  std::size_t n = 0;
  for (const RadixTree& t : trees_) n += t.pinned_blocks();
  return n;
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

CacheLease PrefixCache::pinning_match(RadixTree& tree, std::uint32_t stripe,
                                      std::span<const TokenId> prompt) {
  // Pre: stripe's mutex and the accounting mutex held (when striped);
  // tiered caches hold ALL stripe mutexes (promotion may demote victims
  // from any stripe).
  CacheLease lease;
  lease.path = acquire_path();
  lease.cached_tokens = tree.match_into(prompt, lease.path);
  tree.touch(lease.path, clock_);
  tree.pin(lease.path);
  outstanding_pins_ += lease.path.size();
  lease.stripe = stripe;
  if (tiered()) {
    // Promotion-on-hit: a lower-tier match is pulled back to GPU before
    // the lease hands it out — pinned blocks are always GPU-resident,
    // and the engine prices the transfer the lease reports into TTFT.
    std::size_t host = 0, disk = 0;
    if (promote_pinned_path_locked(tree, lease.path, host, disk, /*cls=*/0))
      lease.cached_tokens = lease.path.size() * config_.block_size;
    lease.promoted_host_blocks = host;
    lease.promoted_disk_blocks = disk;
  }
  return lease;
}

CacheLease PrefixCache::lookup(std::span<const TokenId> prompt) {
  const std::uint32_t s = stripe_of(prompt);
  // Tiered lookups can demote blocks in any stripe to make promotion
  // room, so they take the full lock set; flat lookups stay one-stripe.
  auto all = lock_all_stripes(tiered());
  auto stripe = tiered() ? std::unique_lock<std::mutex>() : lock_stripe(s);
  auto acct = lock_acct();
  ++clock_;
  // A disabled cache must not register lookup traffic: the stats feed
  // hit-rate denominators, and the "No Cache" ablation arm reads them.
  if (!config_.enabled) return CacheLease{};
  ++stats_.lookups;
  stats_.lookup_tokens += prompt.size();
  CacheLease lease = pinning_match(trees_[s], s, prompt);
  stats_.hit_tokens += lease.cached_tokens;
  trace(EventKind::CacheLookup, prompt.size(), lease.cached_tokens,
        lease.path.size());
  return lease;
}

CacheLease PrefixCache::resume_lookup(std::span<const TokenId> prompt) {
  const std::uint32_t s = stripe_of(prompt);
  auto all = lock_all_stripes(tiered());
  auto stripe = tiered() ? std::unique_lock<std::mutex>() : lock_stripe(s);
  auto acct = lock_acct();
  ++clock_;
  if (!config_.enabled) return CacheLease{};
  // Pin + touch only: the resuming request's lookup stats were counted at
  // first admission and must not count again.
  CacheLease lease = pinning_match(trees_[s], s, prompt);
  trace(EventKind::CacheLookup, prompt.size(), lease.cached_tokens,
        lease.path.size(), /*cls=*/1);
  return lease;
}

std::size_t PrefixCache::peek(std::span<const TokenId> prompt) const {
  if (!config_.enabled) return 0;
  const std::uint32_t s = stripe_of(prompt);
  // Stripe lock only: the tree walk must not race concurrent structural
  // mutation, but peek touches no counter, recency stamp, or clock — the
  // probe stays invisible to every observable the stats/LRU tests pin.
  auto stripe = lock_stripe(s);
  return trees_[s].match_tokens(prompt);
}

TierPeek PrefixCache::peek_tiers(std::span<const TokenId> prompt) const {
  TierPeek out;
  if (!config_.enabled) return out;
  const std::uint32_t s = stripe_of(prompt);
  // Same contract as peek(): stripe lock for structural safety only; no
  // counter, recency stamp, clock, or tier is touched.
  auto stripe = lock_stripe(s);
  trees_[s].match_tier_tokens(prompt, out.gpu_tokens, out.host_tokens,
                              out.disk_tokens);
  return out;
}

std::size_t PrefixCache::admit_insert(RadixTree& tree, std::uint32_t stripe,
                                      std::span<const TokenId> prompt,
                                      CacheLease& lease, std::size_t need) {
  // Pre: stripe's mutex and the accounting mutex held (when striped).
  const std::size_t path_before = lease.path.size();
  tree.unpin(lease.path);
  outstanding_pins_ -= lease.path.size();
  std::vector<NodeId> path = acquire_path();
  const std::size_t new_blocks = tree.insert_into(prompt, clock_, need, path);
  pool_.allocate(new_blocks);
  stats_.inserted_blocks += new_blocks;
  tree.pin(path);
  outstanding_pins_ += path.size();
  lease.cached_tokens = path.size() * config_.block_size;
  recycle_path(std::move(lease.path));
  lease.path = std::move(path);
  lease.stripe = stripe;
  trace(EventKind::CacheAdmit, new_blocks, lease.path.size(), path_before);
  return new_blocks;
}

std::size_t PrefixCache::admit(std::span<const TokenId> prompt,
                               CacheLease& lease) {
  if (!config_.enabled) return 0;
  const std::uint32_t s = stripe_of(prompt);

  if (tiered()) {
    auto all = lock_all_stripes();
    auto acct = lock_acct();
    ++clock_;
    return admit_tiered_locked(trees_[s], s, prompt, lease);
  }

  if (locks_) {
    // Fast path: no eviction needed — one stripe plus accounting.
    auto stripe = lock_stripe(s);
    auto acct = lock_acct();
    ++clock_;
    const std::size_t full_blocks = prompt.size() / config_.block_size;
    const std::size_t have = lease.path.size();
    const std::size_t need = full_blocks > have ? full_blocks - have : 0;
    if (pool_.unlimited() || need <= pool_.free())
      return admit_insert(trees_[s], s, prompt, lease, need);
  }

  // Slow path (and the whole single-threaded path, where every lock is a
  // no-op): eviction may take victims from any stripe, so drop the
  // single-stripe locks and retake every stripe in ascending order (the
  // global lock order), then redo the sizing math — the world may have
  // changed in the window. The clock is bumped again under the new
  // locks: reusing the fast path's stamp after the gap could write an
  // older recency than a concurrent touch, breaking the tree's
  // parent-at-least-as-recent invariant. Clock values only ever need to
  // be unique and monotone at use, so the skipped value is harmless.
  auto all = lock_all_stripes();
  auto acct = lock_acct();
  ++clock_;
  const std::size_t full_blocks = prompt.size() / config_.block_size;
  const std::size_t have = lease.path.size();
  std::size_t need = full_blocks > have ? full_blocks - have : 0;
  // Make room: evict LRU unpinned leaves; accept a shorter insert if the
  // pool cannot satisfy the full request (everything pinned).
  if (!pool_.unlimited() && need > pool_.free()) {
    evict_locked(0, need - pool_.free());
    need = std::min(need, pool_.free());
  }
  return admit_insert(trees_[s], s, prompt, lease, need);
}

std::size_t PrefixCache::evict(std::size_t n) {
  auto all = lock_all_stripes();
  auto acct = lock_acct();
  // Tiered: the engine wants GPU headroom; cold blocks step down a tier
  // and stay servable instead of dying. Bottom-tier overflow is
  // destroyed inside the rebalance (that is where evicted_blocks grows).
  return tiered() ? demote_gpu_locked(n) : evict_locked(0, n);
}

// ---- Victim machinery (all pre: every stripe mutex + acct held). ----

std::size_t PrefixCache::take_victims_locked(RadixTree::VictimKind kind,
                                             std::uint8_t tier,
                                             std::size_t n) {
  if (n == 0) return 0;
  for (RadixTree& tree : trees_) tree.victims_begin(kind, tier);
  // Each take is the globally oldest victim across stripes. Clock stamps
  // are globally unique (every op advances clock_ exactly while holding
  // the accounting mutex, and stamps one tree), so heap tops never tie
  // and the victim sequence is exactly what one merged tree would
  // produce. UINT64_MAX means "no victim left"; the strict < (lowest
  // stripe wins a tie) keeps the merge deterministic by construction.
  std::size_t taken = 0;
  for (; taken < n; ++taken) {
    RadixTree* best = nullptr;
    std::uint64_t best_age = UINT64_MAX;
    for (RadixTree& tree : trees_) {
      const std::uint64_t age = tree.victims_top();
      if (age < best_age) {
        best_age = age;
        best = &tree;
      }
    }
    if (best == nullptr) break;  // every block pinned or blocked
    best->victims_take();
  }
  return taken;
}

std::size_t PrefixCache::evict_locked(std::uint8_t tier, std::size_t n) {
  const std::size_t evicted =
      take_victims_locked(RadixTree::VictimKind::Evict, tier, n);
  if (evicted == 0) return 0;
  if (tier == 0)
    pool_.release(evicted);
  else
    (tier == 1 ? host_used_ : disk_used_) -= evicted;
  stats_.evicted_blocks += evicted;
  trace(EventKind::CacheEvict, evicted, tier, 0);
  return evicted;
}

std::size_t PrefixCache::demote_locked(std::uint8_t tier, std::size_t n) {
  const std::size_t moved =
      take_victims_locked(RadixTree::VictimKind::Demote, tier, n);
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

std::size_t PrefixCache::demote_gpu_locked(std::size_t n) {
  const std::size_t demoted = demote_locked(0, n);
  if (demoted > 0) rebalance_lower_tiers_locked();
  return demoted;
}

void PrefixCache::make_gpu_room_locked(std::size_t need) {
  if (pool_.unlimited() || need <= pool_.free()) return;
  demote_gpu_locked(need - pool_.free());
}

void PrefixCache::rebalance_lower_tiers_locked() {
  if (config_.host_capacity_blocks > 0 &&
      host_used_ > config_.host_capacity_blocks) {
    const std::size_t excess = host_used_ - config_.host_capacity_blocks;
    // 3-tier: push host overflow down to disk, globally oldest first.
    // Host blocks are never pinned (pinned => GPU), so this always
    // clears the full excess. 2-tier: host IS the bottom tier, so the
    // overflow dies for real.
    if (config_.tiers >= 3)
      demote_locked(1, excess);
    else
      evict_locked(1, excess);
  }
  if (config_.tiers >= 3 && config_.disk_capacity_blocks > 0 &&
      disk_used_ > config_.disk_capacity_blocks)
    evict_locked(2, disk_used_ - config_.disk_capacity_blocks);
}

bool PrefixCache::promote_pinned_path_locked(RadixTree& tree,
                                             std::vector<NodeId>& path,
                                             std::size_t& host,
                                             std::size_t& disk,
                                             std::uint8_t cls) {
  host = 0;
  disk = 0;
  std::size_t lower_host = 0, lower_disk = 0;
  tree.count_tiered(path, lower_host, lower_disk);
  const std::size_t lower = lower_host + lower_disk;
  if (lower == 0) return false;
  // The path is already pinned, which is what keeps make_gpu_room's
  // demotion scan away from it.
  make_gpu_room_locked(lower);
  bool truncated = false;
  if (!pool_.unlimited() && pool_.free() < lower) {
    // Pin-saturated GPU pool: keep the longest prefix whose lower-tier
    // blocks fit, unpin and drop the tail — the request recomputes those
    // tokens instead of reading them back.
    const std::size_t free = pool_.free();
    std::size_t keep = 0, used = 0;
    for (NodeId id : path) {
      const bool lower_node = tree.node_tier(id) != 0;
      if (lower_node && used == free) break;
      used += lower_node;
      ++keep;
    }
    tree.unpin(std::span<const NodeId>(path.data() + keep,
                                       path.size() - keep));
    outstanding_pins_ -= path.size() - keep;
    path.resize(keep);
    truncated = true;
  }
  tree.count_tiered(path, host, disk);
  if (host + disk > 0) {
    tree.promote_path(path);
    pool_.allocate(host + disk);
    host_used_ -= host;
    disk_used_ -= disk;
    stats_.promoted_blocks += host + disk;
    trace(EventKind::TierPromote, host, disk, path.size(), cls);
  }
  return truncated;
}

std::size_t PrefixCache::admit_tiered_locked(RadixTree& tree,
                                             std::uint32_t stripe,
                                             std::span<const TokenId> prompt,
                                             CacheLease& lease) {
  const std::size_t path_before = lease.path.size();
  // Drop the lookup lease and re-match fresh: another request may have
  // grown (or demotion may have cooled) the matched prefix since.
  tree.unpin(lease.path);
  outstanding_pins_ -= lease.path.size();
  std::vector<NodeId> path = acquire_path();
  tree.match_into(prompt, path);
  tree.touch(path, clock_);
  tree.pin(path);
  outstanding_pins_ += path.size();
  // Refresh-promote the matched prefix BEFORE inserting new children:
  // inserting GPU-born children under a demoted (lower-tier) parent
  // would break tier monotonicity, and pinning a lower-tier node breaks
  // pinned => GPU-resident. Prefill just recomputed every prompt token
  // on-GPU, so this promotion is a free refresh (cls=1), not a priced
  // transfer.
  std::size_t host = 0, disk = 0;
  const bool truncated =
      promote_pinned_path_locked(tree, path, host, disk, /*cls=*/1);
  std::size_t new_blocks = 0;
  if (!truncated) {
    const std::size_t full_blocks = prompt.size() / config_.block_size;
    std::size_t need =
        full_blocks > path.size() ? full_blocks - path.size() : 0;
    if (need > 0) {
      make_gpu_room_locked(need);
      if (!pool_.unlimited()) need = std::min(need, pool_.free());
      tree.unpin(path);
      outstanding_pins_ -= path.size();
      std::vector<NodeId> full_path = acquire_path();
      new_blocks = tree.insert_into(prompt, clock_, need, full_path);
      pool_.allocate(new_blocks);
      stats_.inserted_blocks += new_blocks;
      tree.pin(full_path);
      outstanding_pins_ += full_path.size();
      recycle_path(std::move(path));
      path = std::move(full_path);
    }
  }
  lease.cached_tokens = path.size() * config_.block_size;
  recycle_path(std::move(lease.path));
  lease.path = std::move(path);
  lease.stripe = stripe;
  trace(EventKind::CacheAdmit, new_blocks, lease.path.size(), path_before);
  return new_blocks;
}

std::size_t PrefixCache::admit_migrated(std::span<const TokenId> tokens) {
  if (!config_.enabled) return 0;
  const std::uint32_t s = stripe_of(tokens);
  auto all = lock_all_stripes();
  auto acct = lock_acct();
  ++clock_;
  RadixTree& tree = trees_[s];
  std::vector<NodeId> path = acquire_path();
  tree.match_into(tokens, path);
  tree.touch(path, clock_);
  if (tiered()) {
    // Same monotonicity hazard as admit(): refresh-promote the matched
    // prefix before hanging new GPU blocks under it. The migrated bytes
    // landed in GPU memory either way (cls=1: not a priced transfer —
    // the fleet already charged the inter-replica copy).
    tree.pin(path);
    outstanding_pins_ += path.size();
    std::size_t host = 0, disk = 0;
    const bool truncated =
        promote_pinned_path_locked(tree, path, host, disk, /*cls=*/1);
    tree.unpin(path);
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
      make_gpu_room_locked(need);
    else if (!pool_.unlimited() && need > pool_.free())
      evict_locked(0, need - pool_.free());
    if (!pool_.unlimited()) need = std::min(need, pool_.free());
    std::vector<NodeId> full_path = acquire_path();
    new_blocks = tree.insert_into(tokens, clock_, need, full_path);
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
  auto all = lock_all_stripes();
  auto acct = lock_acct();
  ++clock_;
  // Hottest leaves across every stripe, merged by recency (stamps are
  // globally unique, so the merged order is total and deterministic).
  struct Cand {
    std::uint64_t age;
    std::uint32_t stripe;
    NodeId leaf;
  };
  std::vector<Cand> cands;
  std::vector<NodeId> leaves;
  for (std::uint32_t s = 0; s < trees_.size(); ++s) {
    trees_[s].hottest_leaves(max_blocks, leaves);
    for (NodeId id : leaves)
      cands.push_back({trees_[s].node_last_access(id), s, id});
  }
  std::sort(cands.begin(), cands.end(), [](const Cand& a, const Cand& b) {
    if (a.age != b.age) return a.age > b.age;
    if (a.stripe != b.stripe) return a.stripe < b.stripe;
    return a.leaf < b.leaf;
  });
  std::vector<NodeId> nodes;
  for (const Cand& c : cands) {
    if (batch.blocks >= max_blocks) break;
    RadixTree& tree = trees_[c.stripe];
    tree.path_nodes(c.leaf, nodes);
    // Donor pins must stay GPU-only (pinned => GPU-resident), so the
    // prefix is cut at the first lower-tier node — migration streams the
    // hot GPU-resident part; the cold tail stays where it is.
    std::size_t keep = 0;
    for (NodeId id : nodes) {
      if (tree.node_tier(id) != 0) break;
      ++keep;
    }
    nodes.resize(keep);
    if (nodes.empty()) continue;
    CacheLease lease;
    lease.path = acquire_path();
    lease.path.assign(nodes.begin(), nodes.end());
    lease.stripe = c.stripe;
    lease.cached_tokens = nodes.size() * config_.block_size;
    tree.pin(lease.path);
    outstanding_pins_ += lease.path.size();
    tokenizer::TokenSeq toks;
    tree.path_tokens(nodes.back(), toks);
    batch.blocks += lease.path.size();
    batch.prefixes.push_back(std::move(toks));
    batch.leases.push_back(std::move(lease));
  }
  return batch;
}

void PrefixCache::end_migration(MigrationBatch& batch) {
  if (!config_.enabled) return;
  auto all = lock_all_stripes();
  auto acct = lock_acct();
  for (CacheLease& lease : batch.leases) {
    trees_[lease.stripe].unpin(lease.path);
    outstanding_pins_ -= lease.path.size();
    recycle_path(std::move(lease.path));
  }
  batch.leases.clear();
  batch.prefixes.clear();
  batch.blocks = 0;
}

void PrefixCache::release_locked(CacheLease& lease) {
  RadixTree& tree = trees_[lease.stripe];
  tree.unpin(lease.path);
  outstanding_pins_ -= lease.path.size();
  trace(EventKind::CacheRelease, lease.path.size(), 0, 0);
  recycle_path(std::move(lease.path));
  lease.path = std::vector<NodeId>();  // moved-from: restore a defined empty
  lease.cached_tokens = 0;
  lease.promoted_host_blocks = 0;
  lease.promoted_disk_blocks = 0;
}

void PrefixCache::release(CacheLease& lease) {
  if (!config_.enabled) return;
  auto stripe = lock_stripe(lease.stripe);
  auto acct = lock_acct();
  release_locked(lease);
}

void PrefixCache::cancel_lookup(CacheLease& lease, std::size_t prompt_tokens) {
  if (!config_.enabled) return;
  auto stripe = lock_stripe(lease.stripe);
  auto acct = lock_acct();
  --stats_.lookups;
  stats_.lookup_tokens -= prompt_tokens;
  stats_.hit_tokens -= lease.cached_tokens;
  // Stat-undo only; the release below emits the CacheRelease that
  // balances this lease's pins (one unpin record, never two).
  trace(EventKind::CacheCancelLookup, prompt_tokens, lease.cached_tokens, 0);
  release_locked(lease);
}

std::string PrefixCache::check_invariants() const {
  auto all = lock_all_stripes();
  auto acct = lock_acct();
  std::size_t resident = 0;
  std::uint64_t pins = 0;
  std::size_t gpu = 0, host = 0, disk = 0;
  for (std::size_t i = 0; i < trees_.size(); ++i) {
    std::string tree = trees_[i].check_invariants();
    if (!tree.empty())
      return "tree[" + std::to_string(i) + "]: " + tree;
    resident += trees_[i].num_blocks();
    pins += trees_[i].total_ref_count();
    gpu += trees_[i].tier_blocks(0);
    host += trees_[i].tier_blocks(1);
    disk += trees_[i].tier_blocks(2);
  }
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
