#include "cache/radix_tree.hpp"

#include <algorithm>
#include <stdexcept>

#include "util/token_ops.hpp"

namespace llmq::cache {

namespace ops = util::token_ops;

RadixTree::RadixTree(std::size_t block_size)
    : block_size_(block_size), pool_(kSlabNodes) {
  if (block_size == 0)
    throw std::invalid_argument("RadixTree: block_size must be positive");
  const auto root = pool_.allocate();  // slot 0
  pool_[root].alive = true;
  pool_[root].parent = kNoNode;
}

// ---- Child index (open addressing, linear probing). ----

void RadixTree::index_insert(ChildIndex& ix, NodeId id) {
  const std::size_t mask = ix.table.size() - 1;
  std::size_t pos = pool_[id].block_hash & mask;
  while (ix.table[pos] != kNoNode) pos = (pos + 1) & mask;
  ix.table[pos] = id;
  ++ix.size;
}

void RadixTree::index_erase(ChildIndex& ix, NodeId id) {
  const std::size_t mask = ix.table.size() - 1;
  std::size_t i = pool_[id].block_hash & mask;
  while (ix.table[i] != id) i = (i + 1) & mask;
  ix.table[i] = kNoNode;
  --ix.size;
  // Backward-shift deletion: walk the probe chain after the hole and pull
  // back any entry whose home slot does not lie strictly between the hole
  // and it (else a later lookup would stop at the hole and miss it).
  std::size_t j = i;
  for (;;) {
    j = (j + 1) & mask;
    const NodeId c = ix.table[j];
    if (c == kNoNode) return;
    const std::size_t home = pool_[c].block_hash & mask;
    const bool reachable =
        (j >= i) ? (home > i && home <= j) : (home > i || home <= j);
    if (!reachable) {
      ix.table[i] = c;
      ix.table[j] = kNoNode;
      i = j;
    }
  }
}

void RadixTree::index_rebuild(Node& n, std::size_t min_capacity) {
  std::size_t cap = 16;
  while (cap < min_capacity) cap <<= 1;
  if (n.index.table.size() < cap) n.index.table.resize(cap);
  std::fill(n.index.table.begin(), n.index.table.end(), kNoNode);
  n.index.size = 0;
  for (NodeId c : n.children) index_insert(n.index, c);
}

// ---- Core tree ops. ----

NodeId RadixTree::find_child(NodeId node,
                             std::span<const TokenId> block) const {
  const Node& n = pool_[node];
  if (!n.index.table.empty()) {
    const std::uint64_t h = ops::hash(block.data(), block.size());
    const std::size_t mask = n.index.table.size() - 1;
    for (std::size_t pos = h & mask;; pos = (pos + 1) & mask) {
      const NodeId c = n.index.table[pos];
      if (c == kNoNode) return kNoNode;
      const Node& cn = pool_[c];
      if (cn.block_hash == h &&
          ops::equal(block_span(c).data(), block.data(), block.size()))
        return c;
    }
  }
  for (NodeId c : n.children) {
    if (ops::equal(block_span(c).data(), block.data(), block.size())) return c;
  }
  return kNoNode;
}

NodeId RadixTree::add_child(NodeId node, std::span<const TokenId> block,
                            std::uint64_t now) {
  const NodeId id = static_cast<NodeId>(pool_.allocate());
  while (id / kSlabNodes >= block_slabs_.size())
    block_slabs_.push_back(
        std::make_unique<TokenId[]>(kSlabNodes * block_size_));
  TokenId* dst =
      block_slabs_[id / kSlabNodes].get() + (id % kSlabNodes) * block_size_;
  std::copy(block.begin(), block.end(), dst);

  Node& n = pool_[id];
  n.block_hash = ops::hash(block.data(), block.size());
  n.parent = node;
  n.children.clear();  // recycled slot: capacity retained, contents stale
  n.index.size = 0;
  if (!n.index.table.empty())
    std::fill(n.index.table.begin(), n.index.table.end(), kNoNode);
  n.last_access = now;
  n.ref_count = 0;
  n.same_tier_children = 0;
  n.heap_pos = kNotQueued;  // recycled slot: its old entry left with it
  n.tier = 0;  // new blocks are always born GPU-resident
  n.alive = true;
  // A new node is an unpinned leaf: a victim of tier 0. Its parent stops
  // being one if this is its first tier-0 child.
  heap_push(id);
  if (node != 0 && pool_[node].tier == 0) gain_same_tier_child(node);

  Node& p = pool_[node];
  n.pos_in_parent = static_cast<std::uint32_t>(p.children.size());
  p.children.push_back(id);
  if (!p.index.table.empty()) {
    // Keep the table at load factor <= 3/4.
    if ((p.index.size + 1) * 4 > p.index.table.size() * 3)
      index_rebuild(p, p.children.size() * 2);
    else
      index_insert(p.index, id);
  } else if (p.children.size() >= kIndexMinFanout) {
    index_rebuild(p, p.children.size() * 2);
  }
  ++num_blocks_;
  return id;
}

void RadixTree::remove_node(NodeId id) {
  Node& n = pool_[id];
  // Eviction must never take a pinned block (an in-flight request's KV
  // would dangle) or an inner node (the tree must stay prefix-closed).
  // The victim predicate filters for both; enforce here so any future
  // caller that forgets fails loudly instead of corrupting leases.
  if (n.ref_count > 0)
    throw std::logic_error("RadixTree: removing a pinned node");
  if (!n.children.empty())
    throw std::logic_error("RadixTree: removing a non-leaf node");
  heap_erase(id);  // an unpinned leaf is always queued
  if (n.parent != 0 && pool_[n.parent].tier == n.tier)
    lose_same_tier_child(n.parent);
  Node& p = pool_[n.parent];
  // O(1) swap-remove: child order is unobservable (lookups go through the
  // hash index or an unordered scan), so move the last sibling into the
  // vacated position.
  const std::uint32_t pos = n.pos_in_parent;
  const NodeId moved = p.children.back();
  p.children[pos] = moved;
  pool_[moved].pos_in_parent = pos;
  p.children.pop_back();
  if (!p.index.table.empty()) index_erase(p.index, id);
  n.alive = false;
  pool_.deallocate(id);
  --num_blocks_;
}

RadixTree::Match RadixTree::match(std::span<const TokenId> tokens) const {
  Match out;
  out.matched_tokens = match_into(tokens, out.path);
  return out;
}

std::size_t RadixTree::match_tokens(std::span<const TokenId> tokens) const {
  NodeId cur = 0;
  std::size_t offset = 0;
  while (offset + block_size_ <= tokens.size()) {
    const NodeId child = find_child(cur, tokens.subspan(offset, block_size_));
    if (child == kNoNode) break;
    offset += block_size_;
    cur = child;
  }
  return offset;
}

std::size_t RadixTree::match_into(std::span<const TokenId> tokens,
                                  std::vector<NodeId>& path) const {
  path.clear();
  NodeId cur = 0;
  std::size_t offset = 0;
  while (offset + block_size_ <= tokens.size()) {
    const NodeId child = find_child(cur, tokens.subspan(offset, block_size_));
    if (child == kNoNode) break;
    path.push_back(child);
    offset += block_size_;
    cur = child;
  }
  return offset;
}

RadixTree::InsertResult RadixTree::insert(std::span<const TokenId> tokens,
                                          std::uint64_t now,
                                          std::size_t max_new_blocks) {
  InsertResult out;
  out.new_blocks = insert_into(tokens, now, max_new_blocks, out.path);
  return out;
}

std::size_t RadixTree::insert_into(std::span<const TokenId> tokens,
                                   std::uint64_t now,
                                   std::size_t max_new_blocks,
                                   std::vector<NodeId>& path) {
  path.clear();
  std::size_t new_blocks = 0;
  NodeId cur = 0;
  std::size_t offset = 0;
  while (offset + block_size_ <= tokens.size()) {
    const auto block = tokens.subspan(offset, block_size_);
    NodeId child = find_child(cur, block);
    if (child == kNoNode) {
      if (new_blocks >= max_new_blocks) break;
      child = add_child(cur, block, now);
      ++new_blocks;
    } else {
      stamp(child, now);
    }
    path.push_back(child);
    offset += block_size_;
    cur = child;
  }
  return new_blocks;
}

std::size_t RadixTree::extend_into(std::span<const TokenId> tokens,
                                   std::uint64_t now,
                                   std::size_t max_new_blocks,
                                   std::vector<NodeId>& path) {
  NodeId cur = path.empty() ? 0 : path.back();
  std::size_t offset = path.size() * block_size_;
  std::size_t new_blocks = 0;
  while (new_blocks < max_new_blocks && offset + block_size_ <= tokens.size()) {
    cur = add_child(cur, tokens.subspan(offset, block_size_), now);
    path.push_back(cur);
    offset += block_size_;
    ++new_blocks;
  }
  return new_blocks;
}

void RadixTree::touch(std::span<const NodeId> path, std::uint64_t now) {
  for (NodeId id : path) stamp(id, now);
}

void RadixTree::pin(std::span<const NodeId> path) {
  for (NodeId id : path) {
    Node& n = pool_[id];
    if (n.ref_count++ != 0) continue;
    ++pinned_nodes_;
    if (n.heap_pos != kNotQueued) heap_erase(id);
  }
}

void RadixTree::unpin(std::span<const NodeId> path) {
  for (NodeId id : path) {
    Node& n = pool_[id];
    if (n.ref_count == 0)
      throw std::logic_error("RadixTree: unpin of unpinned node");
    if (--n.ref_count != 0) continue;
    --pinned_nodes_;
    if (n.same_tier_children == 0) heap_push(id);
  }
}

void RadixTree::stamp(NodeId id, std::uint64_t now) {
  Node& n = pool_[id];
  n.last_access = now;
  if (n.heap_pos == kNotQueued) return;
  auto& heap = heaps_[n.tier];
  heap[n.heap_pos].last_access = now;
  heap_fix(heap, n.heap_pos);
}

void RadixTree::gain_same_tier_child(NodeId id) {
  Node& n = pool_[id];
  if (n.same_tier_children++ == 0 && n.heap_pos != kNotQueued) heap_erase(id);
}

void RadixTree::lose_same_tier_child(NodeId id) {
  Node& n = pool_[id];
  if (--n.same_tier_children == 0 && n.ref_count == 0) heap_push(id);
}

void RadixTree::demote(NodeId id) {
  // A victim of tier t leaves heap t, which may leave its parent (at tier
  // t or above, never below) with no child at t. At t + 1 it counts its
  // children afresh; its parent sits above t + 1, so gains none.
  Node& n = pool_[id];
  heap_erase(id);
  if (n.parent != 0 && pool_[n.parent].tier == n.tier)
    lose_same_tier_child(n.parent);
  ++n.tier;
  n.same_tier_children = 0;
  for (NodeId c : n.children) n.same_tier_children += pool_[c].tier == n.tier;
  if (n.same_tier_children == 0) heap_push(id);
}

std::size_t RadixTree::take_victims(VictimKind kind, std::uint8_t tier,
                                    std::size_t n) {
  if (tier >= kTiers ||
      (kind == VictimKind::Demote && std::size_t{tier} + 1 >= kTiers))
    throw std::invalid_argument("RadixTree: no victim tier " +
                                std::to_string(tier) + " for this kind");
  const std::vector<HeapEntry>& heap = heaps_[tier];
  std::size_t taken = 0;
  for (; taken < n && !heap.empty(); ++taken) {
    const NodeId victim = heap.front().id;
    if (kind == VictimKind::Evict)
      remove_node(victim);
    else
      demote(victim);
  }
  return taken;
}

// ---- Victim heaps. ----

void RadixTree::heap_push(NodeId id) {
  auto& heap = heaps_[pool_[id].tier];
  heap.push_back({pool_[id].last_access, id});
  sift_up(heap, heap.size() - 1);
}

void RadixTree::heap_erase(NodeId id) {
  Node& n = pool_[id];
  auto& heap = heaps_[n.tier];
  const std::size_t i = n.heap_pos;
  n.heap_pos = kNotQueued;
  const HeapEntry last = heap.back();
  heap.pop_back();
  if (i == heap.size()) return;
  heap[i] = last;  // refill the hole with the old last entry
  heap_fix(heap, i);
}

void RadixTree::heap_fix(std::vector<HeapEntry>& heap, std::size_t i) {
  // A changed entry breaks the order in at most one direction; a
  // re-stamp (stamps come from a clock) sifts down.
  if (i > 0 && older(heap[i], heap[(i - 1) / 2]))
    sift_up(heap, i);
  else
    sift_down(heap, i);
}

void RadixTree::sift_up(std::vector<HeapEntry>& heap, std::size_t i) {
  const HeapEntry e = heap[i];
  while (i > 0) {
    const std::size_t up = (i - 1) / 2;
    if (!older(e, heap[up])) break;
    heap[i] = heap[up];
    pool_[heap[i].id].heap_pos = static_cast<std::uint32_t>(i);
    i = up;
  }
  heap[i] = e;
  pool_[e.id].heap_pos = static_cast<std::uint32_t>(i);
}

void RadixTree::sift_down(std::vector<HeapEntry>& heap, std::size_t i) {
  const HeapEntry e = heap[i];
  const std::size_t size = heap.size();
  for (;;) {
    std::size_t down = 2 * i + 1;
    if (down >= size) break;
    if (down + 1 < size && older(heap[down + 1], heap[down])) ++down;
    if (!older(heap[down], e)) break;
    heap[i] = heap[down];
    pool_[heap[i].id].heap_pos = static_cast<std::uint32_t>(i);
    i = down;
  }
  heap[i] = e;
  pool_[e.id].heap_pos = static_cast<std::uint32_t>(i);
}

std::size_t RadixTree::evict_lru(std::size_t want) {
  return take_victims(VictimKind::Evict, 0, want);
}

std::string RadixTree::check_invariants() const {
  const auto fail = [](NodeId id, const char* what) {
    return "node " + std::to_string(id) + ": " + what;
  };
  if (pool_.slots() == 0 || !pool_[0].alive || pool_[0].parent != kNoNode)
    return "root: missing, dead, or parented";

  std::size_t alive = 0, pinned = 0;
  for (NodeId id = 0; id < pool_.slots(); ++id) {
    const Node& n = pool_[id];
    if (!n.alive) {
      if (n.heap_pos != kNotQueued) return fail(id, "dead slot still queued");
      continue;
    }
    if (id != 0) {
      ++alive;
      const auto blk = block_span(id);
      if (blk.size() != block_size_) return fail(id, "block size mismatch");
      if (n.block_hash != ops::hash(blk.data(), blk.size()))
        return fail(id, "stale block hash");
      if (n.parent >= pool_.slots() || !pool_[n.parent].alive)
        return fail(id, "dead or out-of-range parent");
      const auto& sib = pool_[n.parent].children;
      if (n.pos_in_parent >= sib.size() || sib[n.pos_in_parent] != id)
        return fail(id, "pos_in_parent does not point back at the node");
      if (std::count(sib.begin(), sib.end(), id) != 1)
        return fail(id, "not exactly once in parent's child list");
      if (n.parent != 0) {
        // Touches and pins cover root-down path prefixes, so recency and
        // pin counts are monotone down every path.
        if (pool_[n.parent].last_access < n.last_access)
          return fail(id, "more recently used than its parent");
        if (pool_[n.parent].ref_count < n.ref_count)
          return fail(id, "more pinned than its parent");
        // A demotion victim has no child in its own tier and promotion
        // covers root-down prefixes, so tiers are monotone down every
        // path too.
        if (pool_[n.parent].tier > n.tier)
          return fail(id, "in a higher tier than its parent");
      }
      // In-flight requests read KV from GPU memory; a pinned block in a
      // lower tier would mean a lease points at data that is not there.
      if (n.ref_count > 0 && n.tier != 0)
        return fail(id, "pinned but not GPU-resident");
      // Victim heaps: the count re-derived from the children, and the
      // node queued, under its current stamp, iff it is a victim.
      std::uint32_t same_tier = 0;
      for (NodeId c : n.children)
        if (c < pool_.slots()) same_tier += pool_[c].tier == n.tier;
      if (same_tier != n.same_tier_children)
        return fail(id, "same_tier_children out of sync with its children");
      const bool victim = n.ref_count == 0 && same_tier == 0;
      if (victim != (n.heap_pos != kNotQueued))
        return fail(id, victim ? "victim missing from its tier's heap"
                               : "non-victim queued in a heap");
      if (victim) {
        if (n.tier >= kTiers) return fail(id, "victim past the last tier");
        const auto& heap = heaps_[n.tier];
        if (n.heap_pos >= heap.size() || heap[n.heap_pos].id != id)
          return fail(id, "heap_pos does not point back at the node");
        if (heap[n.heap_pos].last_access != n.last_access)
          return fail(id, "heap key differs from last_access");
      }
      pinned += n.ref_count > 0;
    } else if (n.heap_pos != kNotQueued) {
      return fail(id, "root queued as a victim");
    }
    for (NodeId c : n.children) {
      if (c >= pool_.slots() || !pool_[c].alive || pool_[c].parent != id)
        return fail(id, "child dead, out of range, or mis-parented");
    }
    for (std::size_t a = 0; a < n.children.size(); ++a)
      for (std::size_t b = a + 1; b < n.children.size(); ++b)
        if (ops::equal(block_span(n.children[a]), block_span(n.children[b])))
          return fail(id, "duplicate sibling blocks");
    if (!n.index.table.empty()) {
      if (n.index.size != n.children.size())
        return fail(id, "child index size out of sync");
      std::size_t filled = 0;
      for (NodeId c : n.index.table) filled += (c != kNoNode);
      if (filled != n.index.size)
        return fail(id, "child index occupancy out of sync");
      for (NodeId c : n.children)
        if (find_child(id, block_span(c)) != c)
          return fail(id, "child not reachable through its index");
    }
  }
  if (alive != num_blocks_) return "num_blocks out of sync with alive nodes";
  if (pinned != pinned_nodes_)
    return "pinned node count out of sync with a walk";
  const auto heap_fail = [](std::size_t t, std::size_t i, const char* what) {
    return "heap " + std::to_string(t) + " entry " + std::to_string(i) +
           ": " + what;
  };
  for (std::size_t t = 0; t < kTiers; ++t) {
    const auto& heap = heaps_[t];
    for (std::size_t i = 0; i < heap.size(); ++i) {
      const NodeId id = heap[i].id;
      // Each entry's node points back at its slot, so no node is queued
      // twice.
      if (id == 0 || id >= pool_.slots() || !pool_[id].alive)
        return heap_fail(t, i, "dead, root or out-of-range node");
      if (pool_[id].tier != t || pool_[id].heap_pos != i)
        return heap_fail(t, i, "node is at another tier or heap slot");
      if (i > 0 && older(heap[i], heap[(i - 1) / 2]))
        return heap_fail(t, i, "older than its heap parent");
    }
  }
  if (pool_.in_use() != alive + 1)  // +1: the root occupies a slot
    return "arena in_use out of sync with alive nodes";
  return std::string();
}

std::uint64_t RadixTree::total_ref_count() const {
  std::uint64_t n = 0;
  for (NodeId id = 1; id < pool_.slots(); ++id)
    if (pool_[id].alive) n += pool_[id].ref_count;
  return n;
}

// ---- Tier operations. ----

std::size_t RadixTree::tier_blocks(std::uint8_t tier) const {
  std::size_t n = 0;
  for (NodeId id = 1; id < pool_.slots(); ++id)
    if (pool_[id].alive && pool_[id].tier == tier) ++n;
  return n;
}

void RadixTree::match_tier_tokens(std::span<const TokenId> tokens,
                                  std::size_t& gpu, std::size_t& host,
                                  std::size_t& disk) const {
  NodeId cur = 0;
  std::size_t offset = 0;
  while (offset + block_size_ <= tokens.size()) {
    const NodeId child = find_child(cur, tokens.subspan(offset, block_size_));
    if (child == kNoNode) break;
    switch (pool_[child].tier) {
      case 0: gpu += block_size_; break;
      case 1: host += block_size_; break;
      default: disk += block_size_; break;
    }
    offset += block_size_;
    cur = child;
  }
}

void RadixTree::count_tiered(std::span<const NodeId> path, std::size_t& host,
                             std::size_t& disk) const {
  for (NodeId id : path) {
    const std::uint8_t t = pool_[id].tier;
    host += (t == 1);
    disk += (t == 2);
  }
}

void RadixTree::promote_path(std::span<const NodeId> path) {
  // Root-down, a node's parent is at tier 0 by the time the node moves,
  // and its children still sit at its old tier or below: it restarts with
  // no tier-0 child, and the path's next node (its child) adds one back.
  for (NodeId id : path) {
    Node& n = pool_[id];
    if (n.tier == 0) continue;
    if (n.heap_pos != kNotQueued) heap_erase(id);
    n.tier = 0;
    n.same_tier_children = 0;
    if (n.parent != 0 && pool_[n.parent].tier == 0)
      gain_same_tier_child(n.parent);
    if (n.ref_count == 0) heap_push(id);
  }
}

void RadixTree::hottest_leaves(std::size_t max_leaves,
                               std::vector<NodeId>& out) const {
  out.clear();
  if (max_leaves == 0) return;
  // (last_access, id) of every leaf, sorted most-recent-first with the
  // lower id winning ties — deterministic regardless of slot layout.
  std::vector<std::pair<std::uint64_t, NodeId>> leaves;
  for (NodeId id = 1; id < pool_.slots(); ++id) {
    const Node& n = pool_[id];
    if (n.alive && n.children.empty()) leaves.emplace_back(n.last_access, id);
  }
  std::sort(leaves.begin(), leaves.end(),
            [](const auto& a, const auto& b) {
              if (a.first != b.first) return a.first > b.first;
              return a.second < b.second;
            });
  if (leaves.size() > max_leaves) leaves.resize(max_leaves);
  for (const auto& [age, id] : leaves) out.push_back(id);
}

void RadixTree::path_tokens(NodeId id, tokenizer::TokenSeq& out) const {
  std::vector<NodeId> chain;
  path_nodes(id, chain);
  for (NodeId n : chain) {
    const auto blk = block_span(n);
    out.insert(out.end(), blk.begin(), blk.end());
  }
}

void RadixTree::path_nodes(NodeId id, std::vector<NodeId>& out) const {
  out.clear();
  for (NodeId cur = id; cur != 0; cur = pool_[cur].parent) out.push_back(cur);
  std::reverse(out.begin(), out.end());
}

}  // namespace llmq::cache
