#pragma once
// Prompt prefix KV cache (paper §2 "Prompt KV cache").
//
// Combines the radix tree with per-tier block capacity and LRU eviction,
// and keeps the hit accounting the evaluation reports as PHR. The serving
// engine calls lookup() when a request is admitted (pinning the matched
// prefix), admit() after prefill (inserting newly computed blocks), and
// release() when the request completes.
//
// Threading. The cache has no locks: exactly one thread owns it at a
// time. The virtual-clock drivers run on one thread, and the threaded
// runtime hands a replica's cache to one worker inside an epoch and back
// to the driver at the barrier (DESIGN.md §10); the TSan CI job checks
// that rule.
//
// Cost: eviction and demotion pay one heap pop per block taken
// (RadixTree::take_victims pops the tier's victim heap, which the tree
// keeps up to date as it changes), with no arena scan, so an evict call
// costs the same on a small and a large cache (bench_micro's
// evict_pressure gates that); pinned_blocks() is a counter. No
// steady-state operation allocates — tiered included (bench_micro's
// alloc_steadystate asserts it).

#include <array>
#include <cstdint>
#include <span>
#include <string>
#include <vector>

#include "cache/radix_tree.hpp"
#include "obs/trace.hpp"

namespace llmq::cache {

struct CacheConfig {
  std::size_t block_size = 16;      // tokens per KV block (vLLM default)
  std::size_t capacity_blocks = 0;  // GPU-tier capacity; 0 = unlimited
  bool enabled = true;              // false = the paper's "No Cache" arm
  /// Tier count: 1 = the flat GPU pool, 2 = GPU + host DRAM, 3 = GPU +
  /// host + disk. Pressure on a tier demotes its cold blocks one tier
  /// down, and only the bottom tier (the GPU itself when tiers == 1)
  /// destroys them; a lower-tier hit is promoted back before the lease
  /// pins it (DESIGN.md §13). Any other value makes PrefixCache throw
  /// std::invalid_argument.
  std::size_t tiers = 1;
  /// Capacity of the host / disk tiers in blocks; 0 = unlimited. Only
  /// read when the corresponding tier exists.
  std::size_t host_capacity_blocks = 0;
  std::size_t disk_capacity_blocks = 0;
};

struct CacheStats {
  std::uint64_t lookups = 0;
  std::uint64_t hit_tokens = 0;     // tokens served from cache
  std::uint64_t lookup_tokens = 0;  // prompt tokens across lookups
  std::uint64_t inserted_blocks = 0;
  std::uint64_t evicted_blocks = 0;  // destroyed outright (bottom tier)
  /// Tier traffic (always 0 on a flat cache): blocks pushed down one
  /// tier under GPU/host pressure, and blocks pulled back to GPU —
  /// whether priced (lookup hit on a lower tier) or free (prefill
  /// recomputed them on-GPU anyway).
  std::uint64_t demoted_blocks = 0;
  std::uint64_t promoted_blocks = 0;
  double hit_rate() const {
    return lookup_tokens ? static_cast<double>(hit_tokens) /
                               static_cast<double>(lookup_tokens)
                         : 0.0;
  }

  /// Field-wise accumulate / delta. Every consumer that needs "stats over
  /// an interval" (per-session deltas, fleet aggregation) MUST go through
  /// these instead of hand-listing fields: a counter added to CacheStats
  /// but missed here silently vanishes from every derived report, which
  /// is why the definitions carry a sizeof tripwire (prefix_cache.cpp)
  /// and a field-coverage test (tests/cache).
  CacheStats& operator+=(const CacheStats& o);
  CacheStats& operator-=(const CacheStats& o);
};

/// a - b, field-wise — the "stats since `b` was sampled" delta.
inline CacheStats operator-(CacheStats a, const CacheStats& b) {
  a -= b;
  return a;
}

/// Handle for an in-flight request's pinned prefix path.
struct CacheLease {
  std::vector<NodeId> path;
  std::size_t cached_tokens = 0;
  /// Blocks this lookup promoted from the host / disk tier back to GPU
  /// (always 0 on a flat cache). The engine prices the transfer into
  /// TTFT before it reuses the prefix — a lower-tier hit is cheaper than
  /// recompute but is not free.
  std::size_t promoted_host_blocks = 0;
  std::size_t promoted_disk_blocks = 0;
};

/// Side-effect-free tier split of a prompt's cached prefix (the router's
/// tier-aware affinity probe): how many matched tokens sit at each tier.
struct TierPeek {
  std::size_t gpu_tokens = 0;
  std::size_t host_tokens = 0;
  std::size_t disk_tokens = 0;
  std::size_t total() const { return gpu_tokens + host_tokens + disk_tokens; }
};

class PrefixCache {
 public:
  /// Throws std::invalid_argument when config.tiers is not 1, 2 or 3.
  explicit PrefixCache(CacheConfig config);

  // Movable (sessions receive their cache by value from the engine), not
  // copyable: a lease's NodeIds are only meaningful against the instance
  // that issued them.
  PrefixCache(PrefixCache&&) = default;
  PrefixCache& operator=(PrefixCache&&) = default;
  PrefixCache(const PrefixCache&) = delete;
  PrefixCache& operator=(const PrefixCache&) = delete;

  const CacheConfig& config() const { return config_; }
  /// Snapshot of the hit/eviction counters.
  CacheStats stats() const { return stats_; }
  /// Blocks resident across ALL tiers (== the tree's node count).
  std::size_t resident_blocks() const { return tree_.num_blocks(); }
  /// Blocks resident in GPU memory only — what engine admission budgets
  /// against. Equal to resident_blocks() on a flat cache.
  std::size_t gpu_resident_blocks() const { return used_[0]; }
  /// Blocks resident at one tier (0 = GPU, 1 = host, 2 = disk).
  std::size_t tier_resident_blocks(std::uint8_t tier) const {
    return used_[tier];
  }
  /// Blocks currently pinned by outstanding leases (gauge sampling).
  std::size_t pinned_blocks() const { return tree_.pinned_blocks(); }

  /// Bind an event sink (obs/trace.hpp). The cache has no clock of its
  /// own, so the owning session also hands down a pointer to its virtual
  /// clock for event timestamps; both must outlive the cache's use.
  /// nullptr sink (the default) disables emission entirely.
  void set_trace(obs::TraceSink* sink, std::uint32_t replica,
                 const double* clock) {
    trace_ = sink;
    trace_replica_ = replica;
    trace_clock_ = clock;
  }

  /// Longest cached block-aligned prefix of `prompt`; pins the matched
  /// path and counts the hit. Advances the logical clock.
  CacheLease lookup(std::span<const TokenId> prompt);

  /// Re-admission probe for a PREEMPTED request resuming execution: pins
  /// and touches the matched path exactly like lookup(), but counts NO
  /// stats — the request already registered its one lookup (and its hit
  /// credit) at first admission, and hit-rate ratios must stay
  /// exactly-once per request across arbitrary preempt/resume cycles.
  /// The matched tokens are what the cache still covers; the resume's
  /// recompute cost is everything beyond them.
  CacheLease resume_lookup(std::span<const TokenId> prompt);

  /// Read-only probe: tokens of `prompt`'s longest cached block-aligned
  /// prefix, with NO side effects — no LRU touch, no pin, no stats, no
  /// clock advance. This is the router's cache-affinity probe contract: a
  /// replica that merely loses a routing comparison must not have its
  /// recency order or hit accounting perturbed. Always 0 when disabled.
  std::size_t peek(std::span<const TokenId> prompt) const;

  /// peek() with the matched tokens split by tier — the same no-side-
  /// effect contract, so the router can score a GPU hit above a host hit
  /// above a miss without perturbing any replica it probes. On a flat
  /// cache everything lands in gpu_tokens (total == peek()).
  TierPeek peek_tiers(std::span<const TokenId> prompt) const;

  /// After prefill: drop the lease, re-match the prompt (another request
  /// may have cached more of it since the lookup), then insert the
  /// remaining full blocks GPU-resident, freeing LRU blocks as needed.
  /// Under memory pressure only the longest admissible prefix is kept
  /// (prefix-closed property preserved). Re-pins the lease to cover the
  /// full inserted path. Returns blocks newly inserted.
  std::size_t admit(std::span<const TokenId> prompt, CacheLease& lease);

  /// Request finished: unpin its path.
  void release(CacheLease& lease);

  /// Undo one lookup()'s stat side-effects when the looked-up request is
  /// NOT admitted after all (engine deferred it for KV memory and will
  /// look up again): decrements the lookup counters and unpins, so a
  /// request that waits K steps for memory still counts as exactly one
  /// lookup in the stats the hit-rate reports divide. `prompt_tokens`
  /// must be the length passed to the paired lookup(). The LRU touch is
  /// deliberately not undone — the prompt really was seen.
  void cancel_lookup(CacheLease& lease, std::size_t prompt_tokens);

  /// Free up to `n` GPU blocks for the serving engine, which owns the
  /// global KV budget across cached and per-request private blocks: the
  /// LRU unpinned leaves are demoted to the host tier (cascading
  /// host->disk as capacities fill), or destroyed on a flat cache, where
  /// the GPU is the bottom tier. Returns GPU blocks actually freed.
  std::size_t evict(std::size_t n);

  /// Insert a migrated prefix (fleet warm-up: a donor replica streamed
  /// these tokens to this cache). Inserts like an admit — new blocks land
  /// GPU-resident, LRU demotion/eviction makes room — but counts NO
  /// lookup or hit stats and pins nothing, so migrated prefixes are
  /// never double-counted as prefix hits; only inserted_blocks grows.
  /// Returns blocks newly inserted.
  std::size_t admit_migrated(std::span<const TokenId> tokens);

  /// Donor side of a fleet prefix migration: the hottest GPU-resident
  /// root-down prefixes (up to roughly `max_blocks` blocks), each pinned
  /// by a lease so donor eviction is deferred until the transfer lands.
  /// The fleet calls end_migration() when it completes (or abandons) the
  /// transfer; until then the blocks stay resident and servable.
  struct MigrationBatch {
    std::vector<tokenizer::TokenSeq> prefixes;  // tokens to stream out
    std::vector<CacheLease> leases;             // donor pins, one per prefix
    std::size_t blocks = 0;  // path blocks covered (ancestors may repeat)
  };
  MigrationBatch begin_migration(std::size_t max_blocks);
  void end_migration(MigrationBatch& batch);

  /// Blocks that a prompt of `n_tokens` would newly occupy beyond
  /// `cached_tokens` (full blocks only).
  std::size_t blocks_needed(std::size_t n_tokens,
                            std::size_t cached_tokens) const;

  /// Property-test self-check: the radix tree's structural invariants
  /// (RadixTree::check_invariants) plus the cache-level accounting that
  /// ties tree, tier ledger, and stats together — each tier's walked
  /// blocks equal its ledger and fit its capacity, resident blocks equal
  /// inserted minus evicted, and the tree's total pin count equals the
  /// pin edges this cache handed out through leases
  /// (lookup/resume_lookup/admit pin, release/cancel_lookup unpin). The
  /// pin ledger is what makes "no pinned block is ever evicted" a walked
  /// invariant: eviction refuses pinned nodes (RadixTree::remove_node
  /// throws), so a lease whose pins went missing — or a pin left behind
  /// by a preempted request — shows up here as a ledger mismatch. Empty
  /// string when everything holds, else the first violation.
  std::string check_invariants() const;

 private:
  using EventKind = obs::EventKind;

  /// Lease-path vector recycling. Leases carry their path vectors out to
  /// callers and bring them back on release; pooling the buffers makes the
  /// steady-state lookup→admit→release cycle allocation-free once
  /// capacities warm up.
  std::vector<NodeId> acquire_path();
  void recycle_path(std::vector<NodeId>&& path);

  bool tiered() const { return config_.tiers > 1; }

  CacheLease pinning_match(std::span<const TokenId> prompt);

  /// The one rule that frees blocks: take up to `n` LRU unpinned blocks
  /// of `tier` and book them (tier ledger, stats, trace). At the bottom
  /// tier they are destroyed (evicted_blocks, CacheEvict); at any other
  /// tier they move one tier down (demoted_blocks, TierDemote), and what
  /// overflows the tier below is freed from it in turn. Returns the
  /// blocks that left `tier` (fewer when everything left is pinned).
  std::size_t free_blocks(std::uint8_t tier, std::size_t n);
  /// Free GPU blocks until `need` are free (best effort).
  void make_gpu_room(std::size_t need);
  /// The insert behind admit() and admit_migrated(): `path` is the pinned
  /// full match of `tokens`. Refresh-promotes it (cls=1), frees GPU room
  /// while it stays pinned (so that can neither evict it nor demote it
  /// under its new children), and appends the blocks past it to `path`,
  /// GPU-resident and unpinned. Returns the blocks inserted: 0 when the
  /// promotion dropped a pin-saturated tail, fewer than missing when
  /// everything left to free is pinned.
  std::size_t insert_past_match(std::span<const TokenId> tokens,
                                std::vector<NodeId>& path);
  /// Free GPU blocks; SIZE_MAX when the GPU tier is unlimited.
  std::size_t gpu_free() const {
    return cap_[0] == 0 ? SIZE_MAX : cap_[0] - used_[0];
  }
  /// Ledger guards: book `n` blocks into the GPU tier (throws
  /// std::runtime_error past its capacity), and take `n` out of `tier`
  /// (throws std::logic_error when it holds fewer).
  void allocate_gpu(std::size_t n);
  void release_blocks(std::uint8_t tier, std::size_t n);
  /// Promote every lower-tier node of the pinned root-down `path` to
  /// GPU, demoting cold blocks for room; a no-op on one tier. If the GPU
  /// is pin-saturated, unpins and drops the non-fitting tail (returns
  /// true). `host`/`disk` receive the blocks promoted from each tier;
  /// `cls` tags the TierPromote event (0 = priced transfer, 1 =
  /// recompute refresh).
  bool promote_pinned_path(std::vector<NodeId>& path, std::size_t& host,
                           std::size_t& disk, std::uint8_t cls);

  /// Emission helper: one branch when tracing is off, no allocation.
  void trace(EventKind kind, std::uint64_t a, std::uint64_t b,
             std::uint64_t c, std::uint8_t cls = 0) const {
    if (!trace_) return;
    trace_->emit({kind, cls, trace_replica_,
                  trace_clock_ ? *trace_clock_ : 0.0, 0, a, b, c});
  }

  CacheConfig config_;
  RadixTree tree_;
  /// Tier ledger (0 = GPU, 1 = host, 2 = disk): blocks resident at each
  /// tier, and its capacity (0 = unlimited). Tiers past config_.tiers stay
  /// empty. Only the GPU capacity is hard; a demotion may overfill the
  /// tier below until free_blocks drains it.
  std::array<std::size_t, 3> used_{};
  std::array<std::size_t, 3> cap_{};
  CacheStats stats_;
  std::uint64_t clock_ = 0;
  /// Outstanding (lease, node) pin edges — incremented when a lease pins
  /// a path, decremented on release; mirrors the tree's total ref count.
  std::uint64_t outstanding_pins_ = 0;
  /// Retired lease-path buffers awaiting reuse.
  std::vector<std::vector<NodeId>> path_pool_;
  obs::TraceSink* trace_ = nullptr;
  std::uint32_t trace_replica_ = 0;
  const double* trace_clock_ = nullptr;
};

}  // namespace llmq::cache
