#pragma once
// Block-granular radix tree over token sequences.
//
// The same data structure family as SGLang's RadixAttention and vLLM's
// automatic prefix caching: prompts are chunked into fixed-size token
// blocks; each tree node holds one block; a request's cached prefix is the
// deepest path whose blocks exactly match the request's leading blocks.
// Reference counts pin paths of in-flight requests; unpinned nodes are
// LRU-evictable (leaves first, so the tree stays prefix-closed).
//
// Hot-path layout (DESIGN.md §11): nodes live in a util::SlotPool slab
// arena and their token blocks in parallel fixed-stride slabs keyed by
// node id, so steady-state churn (evict + re-insert) recycles slots
// without touching the heap. Every node caches the 64-bit token_ops hash
// of its block; child lookup compares hashes before tokens, and nodes
// whose fan-out reaches kIndexMinFanout carry an open-addressed child
// table that turns find_child into O(1) probes.
//
// Victims: eviction and demotion share one entry point, take_victims().
// A node is a victim of its tier iff it is unpinned and has no child at
// its own tier; every node keeps that child count, and each tier keeps
// its victims in an indexed binary min-heap keyed by (last_access, id).
// Only add_child, remove_node, the re-stamps of touch and insert_into,
// the pin/unpin 0<->1 transitions, demotion and promote_path change the
// victim set or a victim's key, and each updates the heaps in place, so
// a heap always holds exactly the victims a fresh arena scan would find
// and take_victims() only pops. On a root-down path only the deepest
// node of each tier run can be a victim, so touching, pinning or
// unpinning a path moves O(1) heap entries, not one per block.
//
// Tiers (DESIGN.md §13): each node carries a tier tag — 0 = GPU, 1 =
// host DRAM, 2 = disk. A flat cache leaves every node at tier 0 and the
// tier machinery is never touched. The tree maintains tier monotonicity
// down every path (child.tier >= parent.tier): a demotion victim has no
// child in its own tier, so a node's same-tier children always demote
// before it, and promotion covers root-down path prefixes only. Recency
// and pins are monotone down paths too (touches and pins cover root-down
// prefixes), so the oldest unpinned block of a demoted tier (or of the
// bottom tier, which is the only one that evicts) is a victim or sits
// above one of the same age: taking victims oldest-first takes the
// tier's blocks oldest-first. Pinned nodes are never demoted, which with
// promotion-before-pin gives "pinned => GPU-resident" as a walked
// invariant.

#include <array>
#include <cstdint>
#include <memory>
#include <span>
#include <string>
#include <vector>

#include "tokenizer/tokenizer.hpp"
#include "util/arena.hpp"

namespace llmq::cache {

using tokenizer::TokenId;
using NodeId = std::uint32_t;
inline constexpr NodeId kNoNode = static_cast<NodeId>(-1);

class RadixTree {
 public:
  explicit RadixTree(std::size_t block_size);

  std::size_t block_size() const { return block_size_; }
  /// Number of resident blocks (== nodes, excluding the root).
  std::size_t num_blocks() const { return num_blocks_; }

  struct Match {
    std::size_t matched_tokens = 0;   // always a multiple of block_size
    std::vector<NodeId> path;         // matched nodes, root-child first
  };

  /// Longest cached block-aligned prefix of `tokens`. Does not touch
  /// recency; callers that consume the match should follow with touch().
  Match match(std::span<const TokenId> tokens) const;

  /// Allocation-free form of match(): only the matched token count.
  std::size_t match_tokens(std::span<const TokenId> tokens) const;

  /// Allocation-free form of match(): fills a caller-owned path vector
  /// (cleared first; capacity is reused). Returns matched token count.
  std::size_t match_into(std::span<const TokenId> tokens,
                         std::vector<NodeId>& path) const;

  struct InsertResult {
    std::vector<NodeId> path;      // full path covering the inserted prefix
    std::size_t new_blocks = 0;    // nodes created by this insert
  };

  /// Ensure a path for all *full* blocks of `tokens` exists, creating at
  /// most `max_new_blocks` new nodes (pass SIZE_MAX for no limit — the
  /// cap lets the cache admit partial prefixes under memory pressure).
  /// Updates last_access of every touched node to `now`.
  InsertResult insert(std::span<const TokenId> tokens, std::uint64_t now,
                      std::size_t max_new_blocks = SIZE_MAX);

  /// Allocation-free form of insert(): fills a caller-owned path vector
  /// (cleared first; capacity is reused). Returns nodes created.
  std::size_t insert_into(std::span<const TokenId> tokens, std::uint64_t now,
                          std::size_t max_new_blocks,
                          std::vector<NodeId>& path);

  /// insert_into() for a caller that already holds the match: `path` must
  /// be `tokens`'s full match (match_into), still resident. Appends nodes
  /// for the following full blocks, at most `max_new_blocks`, born at
  /// `now`, without walking the matched prefix again. Returns nodes
  /// created.
  std::size_t extend_into(std::span<const TokenId> tokens, std::uint64_t now,
                          std::size_t max_new_blocks,
                          std::vector<NodeId>& path);

  /// Bump recency of a path (cache read).
  void touch(std::span<const NodeId> path, std::uint64_t now);

  /// Pin / unpin every node on a path (in-flight request holds its prefix).
  void pin(std::span<const NodeId> path);
  void unpin(std::span<const NodeId> path);

  /// What take_victims() does to a victim. Evict destroys an unpinned
  /// leaf of the tier; Demote moves an unpinned node of the tier that has
  /// no child in the tier down one tier (no structural change).
  enum class VictimKind : std::uint8_t { Evict, Demote };

  /// Evict or demote up to `n` `kind` victims at `tier`, oldest
  /// (last_access, id) first, by popping the tier's victim heap: the
  /// heap already holds exactly the tier's current victims, and each take
  /// updates it (the victim's parent may become one), so one call taking
  /// k victims takes what k calls taking one would. Evict is for the
  /// bottom tier, where a victim is a leaf; an Evict that pops a node
  /// with children throws std::logic_error. Returns the number taken
  /// (fewer when the tier runs out of victims: everything left is pinned
  /// or has children in the tier). Throws std::invalid_argument for a
  /// tier past disk, or a Demote from disk.
  std::size_t take_victims(VictimKind kind, std::uint8_t tier, std::size_t n);

  /// Evict up to `want` least-recently-used, unpinned tier-0 leaves
  /// (take_victims(Evict, 0, want)). Returns the number actually evicted.
  std::size_t evict_lru(std::size_t want);

  /// Total pinned nodes (gauge sampling), counted at the 0<->1 pin
  /// transitions rather than walked.
  std::size_t pinned_blocks() const { return pinned_nodes_; }

  /// Sum of ref_count over all alive nodes — the number of (lease, node)
  /// pin edges outstanding. PrefixCache cross-checks this against its own
  /// lease accounting in check_invariants().
  std::uint64_t total_ref_count() const;

  // ---- Tier operations (no-ops on a flat, all-tier-0 tree). ----

  /// Tier of one alive node (0 = GPU).
  std::uint8_t node_tier(NodeId id) const { return pool_[id].tier; }

  /// Recency stamp of one alive node (diagnostics / tests).
  std::uint64_t node_last_access(NodeId id) const {
    return pool_[id].last_access;
  }

  /// Alive blocks currently at `tier` (ledger walk; O(slots)).
  std::size_t tier_blocks(std::uint8_t tier) const;

  /// Read-only walk of the longest cached prefix (exactly match_tokens'
  /// traversal) that splits the matched tokens by the tier each block
  /// currently sits in. The router's tier-aware affinity probe.
  void match_tier_tokens(std::span<const TokenId> tokens, std::size_t& gpu,
                         std::size_t& host, std::size_t& disk) const;

  /// Count blocks of `path` at each non-GPU tier (no mutation).
  void count_tiered(std::span<const NodeId> path, std::size_t& host,
                    std::size_t& disk) const;

  /// Set every node of `path` to tier 0. `path` must be a root-down path
  /// prefix so tier monotonicity survives (and so each node's parent is
  /// already at tier 0 when the node moves, which the same-tier child
  /// counts rely on). The caller owns the GPU-pool accounting for the
  /// blocks that moved.
  void promote_path(std::span<const NodeId> path);

  // ---- Migration support (donor-side hot-prefix extraction). ----

  /// Ids of up to `max_leaves` most recently used leaves, most recent
  /// first (ties toward the lower id). A leaf's root-down path is the
  /// longest prefix it uniquely represents, so the hottest leaves name
  /// the hottest prefixes a donor should stream to a warming peer.
  void hottest_leaves(std::size_t max_leaves, std::vector<NodeId>& out) const;

  /// Append the token sequence of the root-down path ending at `id` to
  /// `out` (the raw bytes a migration actually transfers).
  void path_tokens(NodeId id, tokenizer::TokenSeq& out) const;

  /// Fill `out` with the root-down node path ending at `id`.
  void path_nodes(NodeId id, std::vector<NodeId>& out) const;

  /// Node slots ever carved from the arena (high-water mark; never
  /// shrinks). The arena microbench asserts this stays flat across
  /// steady-state evict/insert churn.
  std::size_t node_slots() const { return pool_.slots(); }

  /// Structural self-check for the property tests: parent/child/position
  /// consistency, arena accounting, per-node block hashing and sizing,
  /// sibling-block uniqueness, child-index coherence, node-count
  /// accounting, and the path-prefix monotonicity invariants — a node's
  /// parent is always at least as recently used and at least as pinned as
  /// the node, because touches and pins only ever cover root-down path
  /// prefixes — plus the victim heaps: every node's same-tier child count
  /// re-derived from its children, a node queued iff it is a victim of its
  /// tier (unpinned, no child at its tier) under its current last_access,
  /// every heap in order with no dead or duplicate entry, and the pinned
  /// node count equal to a walk. Returns an empty string when every
  /// invariant holds, else a description of the first violation.
  std::string check_invariants() const;

 private:
  // Node::heap_pos of a node in no heap (not a victim, dead, or the root).
  static constexpr std::uint32_t kNotQueued = UINT32_MAX;
  // Tiers the heaps cover: GPU, host, disk.
  static constexpr std::size_t kTiers = 3;

  /// Open-addressed child table: power-of-2 capacity, linear probing,
  /// backward-shift deletion. An empty `table` means the node is below
  /// the fan-out threshold and children are scanned linearly (with the
  /// cached block hash as a cheap first filter). Capacity is retained
  /// when the owning slot is recycled.
  struct ChildIndex {
    std::vector<NodeId> table;   // kNoNode = empty slot
    std::size_t size = 0;
  };

  struct Node {
    std::uint64_t block_hash = 0;     // token_ops::hash of the block
    std::uint64_t last_access = 0;
    std::vector<NodeId> children;
    ChildIndex index;
    NodeId parent = kNoNode;
    std::uint32_t pos_in_parent = 0;  // index in parent's children vector
    std::uint32_t ref_count = 0;
    std::uint32_t same_tier_children = 0;  // children at this node's tier
    std::uint32_t heap_pos = kNotQueued;   // slot in heaps_[tier]
    std::uint8_t tier = 0;            // 0 = GPU, 1 = host, 2 = disk
    bool alive = false;
  };

  /// A victim-heap entry: the node's last_access, copied so sifting
  /// compares without a pool lookup per key.
  struct HeapEntry {
    std::uint64_t last_access;
    NodeId id;
  };

  // Fan-out at which a node gains a child hash table.
  static constexpr std::size_t kIndexMinFanout = 8;
  // Nodes per token slab (block storage stride group).
  static constexpr std::size_t kSlabNodes = 256;

  std::span<const TokenId> block_span(NodeId id) const {
    if (id == 0) return {};
    const TokenId* base = block_slabs_[id / kSlabNodes].get() +
                          (id % kSlabNodes) * block_size_;
    return {base, block_size_};
  }

  NodeId find_child(NodeId node, std::span<const TokenId> block) const;
  NodeId add_child(NodeId node, std::span<const TokenId> block,
                   std::uint64_t now);
  void remove_node(NodeId id);
  /// Move a victim of tier t (t < kTiers - 1) to tier t + 1.
  void demote(NodeId id);
  /// Set a node's last_access, re-keying it if it is queued.
  void stamp(NodeId id, std::uint64_t now);
  /// `id` (not the root) gained / lost a child at its own tier.
  void gain_same_tier_child(NodeId id);
  void lose_same_tier_child(NodeId id);

  // Indexed min-heap on (last_access, id); each move rewrites the moved
  // node's heap_pos.
  static bool older(const HeapEntry& a, const HeapEntry& b) {
    return a.last_access != b.last_access ? a.last_access < b.last_access
                                          : a.id < b.id;
  }
  void heap_push(NodeId id);
  void heap_erase(NodeId id);
  /// Restore the order around slot `i` after its entry changed.
  void heap_fix(std::vector<HeapEntry>& heap, std::size_t i);
  void sift_up(std::vector<HeapEntry>& heap, std::size_t i);
  void sift_down(std::vector<HeapEntry>& heap, std::size_t i);

  void index_insert(ChildIndex& ix, NodeId id);
  void index_erase(ChildIndex& ix, NodeId id);
  void index_rebuild(Node& n, std::size_t min_capacity);

  std::size_t block_size_;
  util::SlotPool<Node> pool_;    // slot 0 is the root
  std::vector<std::unique_ptr<TokenId[]>> block_slabs_;
  std::size_t num_blocks_ = 0;
  std::size_t pinned_nodes_ = 0;  // alive nodes with ref_count > 0
  // heaps_[t] holds exactly tier t's victims; capacity is reused.
  std::array<std::vector<HeapEntry>, kTiers> heaps_;
};

}  // namespace llmq::cache
