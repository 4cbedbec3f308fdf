#pragma once
// Prompt prefix KV cache (paper §2 "Prompt KV cache").
//
// Combines the radix tree with block-pool capacity and LRU eviction, and
// keeps the hit accounting the evaluation reports as PHR. The serving
// engine calls lookup() when a request is admitted (pinning the matched
// prefix), admit() after prefill (inserting newly computed blocks), and
// release() when the request completes.
//
// Threading. By default (lock_stripes == 0) the cache is single-threaded
// and lock-free, exactly as the virtual-clock simulator uses it. With
// lock_stripes = S > 0 the cache becomes thread-safe via lock striping:
// prompts are sharded by a hash of their first (root) token block into S
// independent radix trees, each behind its own mutex, with a separate
// accounting mutex guarding the shared stats/clock/pool state. Two
// prompts can only share tree structure below the root if they share
// their entire first block, so same-stripe trees partition the node space
// exactly like one tree whose root children were split by stripe — and
// because every operation stamps a globally unique logical-clock value,
// merging the per-stripe victim heaps by age (take_victims_locked)
// reproduces the single-tree LRU eviction and demotion order exactly.
// The striped cache is therefore behaviorally identical to the unstriped
// one under any serialized operation sequence (pinned by tests/cache),
// which is what lets the threaded fleet runtime stay bit-identical to the
// virtual-clock oracle. Lock order: stripe mutexes in ascending index
// first, then the accounting mutex; never the reverse.
//
// Cost: every eviction or demotion call scans the node arena once (one
// victims_begin per stripe) and then pays a heap pop plus one compare
// per stripe for each block taken, and no steady-state operation
// allocates — striped and tiered included (bench_micro's
// alloc_steadystate asserts it).

#include <cstdint>
#include <memory>
#include <mutex>
#include <span>
#include <vector>

#include "cache/block_pool.hpp"
#include "cache/radix_tree.hpp"
#include "obs/trace.hpp"

namespace llmq::cache {

struct CacheConfig {
  std::size_t block_size = 16;      // tokens per KV block (vLLM default)
  std::size_t capacity_blocks = 0;  // GPU-tier capacity; 0 = unlimited
  bool enabled = true;              // false = the paper's "No Cache" arm
  /// 0 = single-threaded (no locks, one tree — the simulator default).
  /// S > 0 = thread-safe with S lock stripes / per-stripe trees.
  std::size_t lock_stripes = 0;
  /// Tier count: 1 = flat GPU-only pool (the pre-tier behavior, bit-
  /// exact), 2 = GPU + host DRAM, 3 = GPU + host + disk. With tiers > 1
  /// GPU pressure demotes cold blocks down instead of destroying them,
  /// and a lower-tier hit is promoted back before the lease pins it
  /// (DESIGN.md §13). Any other value makes PrefixCache throw
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
  /// Stripe the path lives in (always 0 when unstriped). Recorded at
  /// lookup so release/admit relock the right tree without rehashing.
  std::uint32_t stripe = 0;
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
  /// Snapshot of the hit/eviction counters. By value: with lock striping
  /// the copy is taken under the accounting mutex so concurrent readers
  /// never see a half-updated struct.
  CacheStats stats() const;
  /// Blocks resident across ALL tiers (== the tree's node count).
  std::size_t resident_blocks() const;
  /// Blocks resident in GPU memory only — what engine admission budgets
  /// against. Equal to resident_blocks() on a flat cache.
  std::size_t gpu_resident_blocks() const;
  /// Blocks resident at one tier (0 = GPU, 1 = host, 2 = disk).
  std::size_t tier_resident_blocks(std::uint8_t tier) const;
  /// Blocks currently pinned by outstanding leases (gauge sampling).
  std::size_t pinned_blocks() const;

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
  /// With lock striping the probe takes its stripe's mutex (tree walks
  /// race with concurrent insert/evict otherwise) but still leaves every
  /// counter and recency stamp untouched — transparency is pinned under
  /// concurrent mutation by tests/cache/test_cache_concurrency.cpp.
  std::size_t peek(std::span<const TokenId> prompt) const;

  /// peek() with the matched tokens split by tier — the same no-side-
  /// effect contract, so the router can score a GPU hit above a host hit
  /// above a miss without perturbing any replica it probes. On a flat
  /// cache everything lands in gpu_tokens (total == peek()).
  TierPeek peek_tiers(std::span<const TokenId> prompt) const;

  /// After prefill: insert the prompt's full blocks, evicting LRU blocks
  /// as needed. Under memory pressure only the longest admissible prefix
  /// is kept (prefix-closed property preserved). Re-pins the lease to
  /// cover the full inserted path. Returns blocks newly inserted.
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
  /// global KV budget across cached and per-request private blocks.
  /// Flat cache: LRU leaves are destroyed. Tiered cache: the same LRU
  /// victims are demoted to the host tier instead (cascading host->disk
  /// and finally destroying bottom-tier LRU leaves as capacities fill).
  /// Returns GPU blocks actually freed.
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
  /// ties tree, pool, and stats together — resident blocks equal pool
  /// usage and equal inserted minus evicted, and the tree's total pin
  /// count equals the pin edges this cache handed out through leases
  /// (lookup/resume_lookup/admit pin, release/cancel_lookup unpin). The
  /// pin ledger is what makes "no pinned block is ever evicted" a walked
  /// invariant: eviction refuses pinned nodes (RadixTree::remove_node
  /// throws), so a lease whose pins went missing — or a pin left behind
  /// by a preempted request — shows up here as a ledger mismatch. Empty
  /// string when everything holds, else the first violation.
  std::string check_invariants() const;

 private:
  using EventKind = obs::EventKind;

  /// Mutexes live behind a pointer so the cache stays movable (mutexes
  /// are not); null when lock_stripes == 0, making every lock helper a
  /// no-op on the single-threaded path.
  struct LockState {
    explicit LockState(std::size_t stripes) : stripe_mu(stripes) {}
    std::vector<std::mutex> stripe_mu;
    /// Guards stats_, clock_, pool_, outstanding_pins_. Acquired after
    /// any stripe mutexes, never before.
    std::mutex acct_mu;
  };

  /// Every stripe mutex, locked in ascending index (the global lock
  /// order) and unlocked in reverse; a no-op over a null LockState.
  /// Holds no container, so taking the full lock set never allocates.
  class AllStripes {
   public:
    explicit AllStripes(LockState* locks) : locks_(locks) {
      if (!locks_) return;
      for (std::mutex& m : locks_->stripe_mu) m.lock();
    }
    ~AllStripes() {
      if (!locks_) return;
      for (auto m = locks_->stripe_mu.rbegin(); m != locks_->stripe_mu.rend();
           ++m)
        m->unlock();
    }
    AllStripes(const AllStripes&) = delete;
    AllStripes& operator=(const AllStripes&) = delete;

   private:
    LockState* locks_;
  };

  std::uint32_t stripe_of(std::span<const TokenId> prompt) const;
  std::unique_lock<std::mutex> lock_stripe(std::uint32_t s) const;
  std::unique_lock<std::mutex> lock_acct() const;
  /// All stripe locks, or none when `engage` is false (flat lookups lock
  /// one stripe instead).
  AllStripes lock_all_stripes(bool engage = true) const {
    return AllStripes(engage ? locks_.get() : nullptr);
  }

  /// Lease-path vector recycling (pre: acct mutex held, when striped).
  /// Leases carry their path vectors out to callers and bring them back
  /// on release; pooling the buffers makes the steady-state
  /// lookup→admit→release cycle allocation-free once capacities warm up.
  std::vector<NodeId> acquire_path();
  void recycle_path(std::vector<NodeId>&& path);

  bool tiered() const { return config_.tiers > 1; }

  CacheLease pinning_match(RadixTree& tree, std::uint32_t stripe,
                           std::span<const TokenId> prompt);

  // ---- Victim helpers. Pre for all: every stripe mutex + acct held
  // (victims can sit in any stripe). ----

  /// The one cross-stripe merge: begin every stripe's victim heap, then
  /// take up to `n` victims globally oldest first — a k-way merge by
  /// heap-top age, ties toward the lower stripe, one tree being the
  /// k = 1 case. Returns victims taken.
  std::size_t take_victims_locked(RadixTree::VictimKind kind,
                                  std::uint8_t tier, std::size_t n);
  /// Destroy up to `n` LRU unpinned leaves of `tier` (0 on a flat cache,
  /// the bottom tier on a tiered one) and book them: tier ledger,
  /// evicted_blocks, CacheEvict. Returns blocks destroyed.
  std::size_t evict_locked(std::uint8_t tier, std::size_t n);
  /// Demote up to `n` LRU unpinned blocks from `tier` to `tier + 1` and
  /// book them: tier ledgers, demoted_blocks, TierDemote.
  std::size_t demote_locked(std::uint8_t tier, std::size_t n);
  /// Demote up to `n` GPU-LRU blocks to host, then rebalance host/disk to
  /// capacity. Returns GPU blocks freed (fewer when everything left is
  /// pinned).
  std::size_t demote_gpu_locked(std::size_t n);
  /// Demote until the GPU pool has `need` free blocks (best effort).
  void make_gpu_room_locked(std::size_t need);
  /// Push host overflow to disk (3-tier) or destroy bottom-tier LRU
  /// leaves so host/disk stay within their capacities.
  void rebalance_lower_tiers_locked();
  /// Promote every lower-tier node of the pinned root-down `path` to
  /// GPU, demoting cold blocks for room. If the pool is pin-saturated,
  /// unpins and drops the non-fitting tail (returns true). `host`/`disk`
  /// receive the blocks promoted from each tier; `cls` tags the
  /// TierPromote event (0 = priced transfer, 1 = recompute refresh).
  bool promote_pinned_path_locked(RadixTree& tree, std::vector<NodeId>& path,
                                  std::size_t& host, std::size_t& disk,
                                  std::uint8_t cls);
  /// Tiered admit(): refresh-promote the matched prefix, then insert the
  /// remaining new blocks GPU-resident.
  std::size_t admit_tiered_locked(RadixTree& tree, std::uint32_t stripe,
                                  std::span<const TokenId> prompt,
                                  CacheLease& lease);
  /// Pre: caller holds lease.stripe's mutex and acct (when striped).
  void release_locked(CacheLease& lease);
  /// Insert + repin half of admit(). Pre: stripe + acct held; `need` caps
  /// new nodes. Returns blocks newly inserted.
  std::size_t admit_insert(RadixTree& tree, std::uint32_t stripe,
                           std::span<const TokenId> prompt, CacheLease& lease,
                           std::size_t need);

  /// Emission helper: one branch when tracing is off, no allocation.
  void trace(EventKind kind, std::uint64_t a, std::uint64_t b,
             std::uint64_t c, std::uint8_t cls = 0) const {
    if (!trace_) return;
    trace_->emit({kind, cls, trace_replica_,
                  trace_clock_ ? *trace_clock_ : 0.0, 0, a, b, c});
  }

  CacheConfig config_;
  /// One tree per stripe (exactly one when unstriped). Per-stripe trees —
  /// rather than one tree with striped node locks — keep the hot node
  /// vector free of cross-thread reallocation races by construction.
  std::vector<RadixTree> trees_;
  BlockPool pool_;  // the GPU tier: pool_.used() == GPU-resident blocks
  /// Blocks resident at the host / disk tiers (acct-guarded; both stay 0
  /// on a flat cache).
  std::size_t host_used_ = 0;
  std::size_t disk_used_ = 0;
  CacheStats stats_;
  std::uint64_t clock_ = 0;
  /// Outstanding (lease, node) pin edges — incremented when a lease pins
  /// a path, decremented on release; mirrors the trees' total ref count.
  std::uint64_t outstanding_pins_ = 0;
  /// Retired lease-path buffers awaiting reuse (guarded by acct_mu).
  std::vector<std::vector<NodeId>> path_pool_;
  std::unique_ptr<LockState> locks_;
  obs::TraceSink* trace_ = nullptr;
  std::uint32_t trace_replica_ = 0;
  const double* trace_clock_ = nullptr;
};

}  // namespace llmq::cache
