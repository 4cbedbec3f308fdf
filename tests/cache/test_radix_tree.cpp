#include "cache/radix_tree.hpp"

#include <gtest/gtest.h>

#include <numeric>
#include <utility>
#include <vector>

namespace llmq::cache {
namespace {

tokenizer::TokenSeq seq(std::initializer_list<TokenId> ids) { return ids; }

tokenizer::TokenSeq iota_seq(std::size_t n, TokenId start = 0) {
  tokenizer::TokenSeq s(n);
  std::iota(s.begin(), s.end(), start);
  return s;
}

TEST(RadixTree, ZeroBlockSizeRejected) {
  EXPECT_THROW(RadixTree(0), std::invalid_argument);
}

TEST(RadixTree, EmptyTreeMatchesNothing) {
  RadixTree t(4);
  EXPECT_EQ(t.match(iota_seq(16)).matched_tokens, 0u);
  EXPECT_EQ(t.num_blocks(), 0u);
}

TEST(RadixTree, InsertThenFullMatch) {
  RadixTree t(4);
  const auto s = iota_seq(12);
  const auto ins = t.insert(s, 1);
  EXPECT_EQ(ins.new_blocks, 3u);
  EXPECT_EQ(t.num_blocks(), 3u);
  const auto m = t.match(s);
  EXPECT_EQ(m.matched_tokens, 12u);
  EXPECT_EQ(m.path.size(), 3u);
}

TEST(RadixTree, PartialBlockNotCached) {
  RadixTree t(4);
  t.insert(iota_seq(10), 1);  // 2 full blocks; trailing 2 tokens dropped
  EXPECT_EQ(t.num_blocks(), 2u);
  EXPECT_EQ(t.match(iota_seq(10)).matched_tokens, 8u);
}

TEST(RadixTree, SharedPrefixSharesNodes) {
  RadixTree t(4);
  auto a = iota_seq(8);                 // blocks [0..3][4..7]
  auto b = iota_seq(8);
  b[6] = 99;                            // second block differs
  t.insert(a, 1);
  const auto ins_b = t.insert(b, 2);
  EXPECT_EQ(ins_b.new_blocks, 1u);      // first block reused
  EXPECT_EQ(t.num_blocks(), 3u);
  EXPECT_EQ(t.match(a).matched_tokens, 8u);
  EXPECT_EQ(t.match(b).matched_tokens, 8u);
}

TEST(RadixTree, MatchStopsAtDivergence) {
  RadixTree t(4);
  t.insert(iota_seq(8), 1);
  auto probe = iota_seq(8);
  probe[5] = 42;
  EXPECT_EQ(t.match(probe).matched_tokens, 4u);
}

TEST(RadixTree, InsertRespectsMaxNewBlocks) {
  RadixTree t(4);
  const auto ins = t.insert(iota_seq(16), 1, 2);
  EXPECT_EQ(ins.new_blocks, 2u);
  EXPECT_EQ(t.num_blocks(), 2u);
  EXPECT_EQ(ins.path.size(), 2u);
}

TEST(RadixTree, EvictLruRemovesOldestLeaf) {
  RadixTree t(4);
  t.insert(seq({1, 2, 3, 4}), 1);
  t.insert(seq({5, 6, 7, 8}), 2);
  EXPECT_EQ(t.evict_lru(1), 1u);
  // The older (time 1) chain must be gone; the newer remains.
  EXPECT_EQ(t.match(seq({1, 2, 3, 4})).matched_tokens, 0u);
  EXPECT_EQ(t.match(seq({5, 6, 7, 8})).matched_tokens, 4u);
}

TEST(RadixTree, EvictionIsLeafFirst) {
  RadixTree t(4);
  t.insert(iota_seq(12), 1);  // chain of 3
  EXPECT_EQ(t.evict_lru(1), 1u);
  // Prefix-closed: the first two blocks still match.
  EXPECT_EQ(t.match(iota_seq(12)).matched_tokens, 8u);
}

TEST(RadixTree, PinnedNodesNotEvicted) {
  RadixTree t(4);
  const auto ins = t.insert(seq({1, 2, 3, 4}), 1);
  t.pin(ins.path);
  EXPECT_EQ(t.evict_lru(5), 0u);
  EXPECT_EQ(t.pinned_blocks(), 1u);
  t.unpin(ins.path);
  EXPECT_EQ(t.evict_lru(5), 1u);
}

TEST(RadixTree, UnpinWithoutPinThrows) {
  RadixTree t(4);
  const auto ins = t.insert(seq({1, 2, 3, 4}), 1);
  EXPECT_THROW(t.unpin(ins.path), std::logic_error);
}

TEST(RadixTree, TouchProtectsFromLru) {
  RadixTree t(4);
  const auto a = t.insert(seq({1, 2, 3, 4}), 1);
  t.insert(seq({5, 6, 7, 8}), 2);
  t.touch(a.path, 3);  // refresh the older entry
  EXPECT_EQ(t.evict_lru(1), 1u);
  EXPECT_EQ(t.match(seq({1, 2, 3, 4})).matched_tokens, 4u);
  EXPECT_EQ(t.match(seq({5, 6, 7, 8})).matched_tokens, 0u);
}

TEST(RadixTree, NodeReuseAfterEviction) {
  RadixTree t(2);
  for (int round = 0; round < 50; ++round) {
    t.insert(seq({static_cast<TokenId>(round), 1}), round);
    t.evict_lru(1);
  }
  EXPECT_EQ(t.num_blocks(), 0u);
}

TEST(RadixTree, HighFanoutChildIndexFindsEveryChild) {
  // Push root fan-out far past kIndexMinFanout so child lookup goes
  // through the open-addressed index; every child must still be found
  // exactly, misses must still miss, and the structural invariants
  // (index coherence included) must hold throughout.
  RadixTree t(4);
  constexpr int kChildren = 400;
  for (int i = 0; i < kChildren; ++i)
    t.insert(iota_seq(4, static_cast<TokenId>(10 * i)), i + 1);
  EXPECT_EQ(t.num_blocks(), static_cast<std::size_t>(kChildren));
  EXPECT_EQ(t.check_invariants(), "");
  for (int i = 0; i < kChildren; ++i) {
    const auto probe = iota_seq(4, static_cast<TokenId>(10 * i));
    EXPECT_EQ(t.match(probe).matched_tokens, 4u) << "child " << i;
    EXPECT_EQ(t.match_tokens(probe), 4u);
  }
  // A block that collides with no child (distinct first token space).
  EXPECT_EQ(t.match_tokens(iota_seq(4, 999'999)), 0u);
}

TEST(RadixTree, HighFanoutEvictionKeepsIndexCoherent) {
  // Interleave eviction waves with re-inserts at high fan-out: the index
  // erase path (backward-shift deletion) and slot recycling must keep
  // lookups exact. Eviction takes the oldest children first.
  RadixTree t(4);
  constexpr int kChildren = 100;
  for (int i = 0; i < kChildren; ++i)
    t.insert(iota_seq(4, static_cast<TokenId>(10 * i)), i + 1);
  const std::size_t slots_high_water = t.node_slots();

  EXPECT_EQ(t.evict_lru(30), 30u);  // oldest 30 = children 0..29
  EXPECT_EQ(t.check_invariants(), "");
  for (int i = 0; i < kChildren; ++i) {
    const auto probe = iota_seq(4, static_cast<TokenId>(10 * i));
    EXPECT_EQ(t.match_tokens(probe), i < 30 ? 0u : 4u) << "child " << i;
  }

  // Re-insert the evicted 30: recycled slots, no new slab growth.
  for (int i = 0; i < 30; ++i)
    t.insert(iota_seq(4, static_cast<TokenId>(10 * i)), 1000 + i);
  EXPECT_EQ(t.num_blocks(), static_cast<std::size_t>(kChildren));
  EXPECT_EQ(t.node_slots(), slots_high_water);
  EXPECT_EQ(t.check_invariants(), "");
  for (int i = 0; i < kChildren; ++i)
    EXPECT_EQ(t.match_tokens(iota_seq(4, static_cast<TokenId>(10 * i))), 4u);

  // Drain completely through the heap-based batch path.
  EXPECT_EQ(t.evict_lru(kChildren), static_cast<std::size_t>(kChildren));
  EXPECT_EQ(t.num_blocks(), 0u);
  EXPECT_EQ(t.check_invariants(), "");
}

TEST(RadixTree, BatchEvictMatchesOneByOneEviction) {
  // The single-scan min-heap batch eviction must take exactly the victims
  // the classic rescan-per-victim loop would: build two identical trees,
  // evict k in one batch from one and k times singly from the other, and
  // compare the surviving match sets.
  auto build = [] {
    RadixTree t(2);
    // Mixed topology: shared chains + wide fan-out. Timestamps must be
    // monotone (the tree's clock contract), so LRU diversity comes from
    // a scrambled insertion order instead.
    std::uint64_t now = 1;
    for (int step = 0; step < 24; ++step) {
      const int i = (step * 11) % 24;  // gcd(11,24)=1: a permutation
      const auto a = static_cast<TokenId>(i % 6);
      const auto b = static_cast<TokenId>(i);
      t.insert(seq({a, a, b, b, static_cast<TokenId>(i * 7 % 5), 1}), now++);
    }
    return t;
  };
  auto survivors = [](RadixTree& t) {
    std::vector<std::size_t> out;
    for (int i = 0; i < 24; ++i) {
      const auto a = static_cast<TokenId>(i % 6);
      const auto b = static_cast<TokenId>(i);
      out.push_back(t.match_tokens(
          seq({a, a, b, b, static_cast<TokenId>(i * 7 % 5), 1})));
    }
    return out;
  };
  for (std::size_t k : {1u, 3u, 7u, 20u, 100u}) {
    RadixTree batch = build();
    RadixTree single = build();
    const std::size_t got = batch.evict_lru(k);
    std::size_t got_single = 0;
    for (std::size_t i = 0; i < k; ++i) got_single += single.evict_lru(1);
    EXPECT_EQ(got, got_single) << "k=" << k;
    EXPECT_EQ(survivors(batch), survivors(single)) << "k=" << k;
    EXPECT_EQ(batch.check_invariants(), "");
    EXPECT_EQ(single.check_invariants(), "");
  }
}

// A tree whose paths share stamps: every multi-block insert stamps its
// whole path with one clock value, and recycled slots give some children
// a lower id than their parent — the tie the (last_access, id) order
// cannot break toward the parent on its own.
RadixTree shared_stamp_tree() {
  RadixTree t(2);
  std::uint64_t now = 1;
  for (TokenId i = 0; i < 6; ++i) t.insert(seq({i, i}), now++);
  t.evict_lru(3);  // frees the three oldest slots (roots 0, 1, 2)
  for (TokenId i = 3; i < 6; ++i)
    t.insert(seq({i, i, 9, i, 7, 7}), now++);  // children reuse those slots
  for (TokenId i = 10; i < 14; ++i)
    t.insert(seq({i, i, i, 1, i, 2, i, 3}), now++);
  t.insert(seq({10, 10, 10, 1, 5, 5}), now++);  // branch under a stamped path
  t.insert(seq({12, 12, 12, 1}), now++);        // re-stamp a path prefix
  return t;
}

const std::vector<tokenizer::TokenSeq>& shared_stamp_probes() {
  static const std::vector<tokenizer::TokenSeq> probes = [] {
    std::vector<tokenizer::TokenSeq> out;
    for (TokenId i = 3; i < 6; ++i) out.push_back(seq({i, i, 9, i, 7, 7}));
    for (TokenId i = 10; i < 14; ++i)
      out.push_back(seq({i, i, i, 1, i, 2, i, 3}));
    out.push_back(seq({10, 10, 10, 1, 5, 5}));
    return out;
  }();
  return probes;
}

/// Per-probe (gpu, host, disk) matched tokens plus per-tier block counts.
std::vector<std::size_t> tier_fingerprint(const RadixTree& t) {
  std::vector<std::size_t> out;
  for (const auto& p : shared_stamp_probes()) {
    std::size_t gpu = 0, host = 0, disk = 0;
    t.match_tier_tokens(p, gpu, host, disk);
    out.insert(out.end(), {gpu, host, disk});
  }
  for (std::uint8_t tier = 0; tier < 3; ++tier)
    out.push_back(t.tier_blocks(tier));
  return out;
}

/// Take up to `k` victims as k calls of take_victims(1): a fresh scan per
/// victim, with the invariants checked after each.
std::size_t take_one_by_one(RadixTree& t, RadixTree::VictimKind kind,
                            std::uint8_t tier, std::size_t k) {
  std::size_t taken = 0;
  for (std::size_t i = 0; i < k; ++i) {
    taken += t.take_victims(kind, tier, 1);
    EXPECT_EQ(t.check_invariants(), "") << "after victim " << i;
  }
  return taken;
}

TEST(RadixTree, SharedStampTreeHasChildWithLowerIdThanParent) {
  // Precondition of the batch-demotion test below: the fixture really
  // contains the same-stamp, lower-id child.
  RadixTree t = shared_stamp_tree();
  ASSERT_EQ(t.check_invariants(), "");
  bool found = false;
  for (const auto& p : shared_stamp_probes()) {
    const auto path = t.match(p).path;
    for (std::size_t i = 1; i < path.size(); ++i)
      found |= path[i] < path[i - 1] &&
               t.node_last_access(path[i]) == t.node_last_access(path[i - 1]);
  }
  EXPECT_TRUE(found);
}

TEST(RadixTree, BatchDemotionMatchesOneByOneOnSharedStamps) {
  // One heap demotes a parent only once its last same-tier child has
  // gone, so take_victims(k) stays tier-monotone even where parent and
  // child share a stamp, and takes exactly the blocks k calls of
  // take_victims(1) (a fresh scan per victim) take: GPU -> host,
  // host -> disk, then bottom-tier eviction.
  using Kind = RadixTree::VictimKind;
  for (std::size_t k : {1u, 2u, 4u, 7u, 11u, 100u}) {
    SCOPED_TRACE("k=" + std::to_string(k));
    RadixTree batch = shared_stamp_tree();
    RadixTree single = shared_stamp_tree();
    const std::pair<Kind, std::uint8_t> phases[] = {
        {Kind::Demote, 0}, {Kind::Demote, 1}, {Kind::Evict, 2}};
    for (const auto& [kind, tier] : phases) {
      EXPECT_EQ(batch.take_victims(kind, tier, k),
                take_one_by_one(single, kind, tier, k))
          << "tier " << int{tier};
      EXPECT_EQ(batch.check_invariants(), "") << "tier " << int{tier};
      EXPECT_EQ(tier_fingerprint(batch), tier_fingerprint(single))
          << "tier " << int{tier};
    }
  }
}

TEST(RadixTree, PinnedNodesAreNeverVictims) {
  RadixTree t = shared_stamp_tree();
  const auto path = t.match(seq({10, 10, 10, 1, 10, 2, 10, 3})).path;
  t.pin(path);
  const std::size_t blocks = t.num_blocks();
  const std::size_t demoted =
      t.take_victims(RadixTree::VictimKind::Demote, 0, 1000);
  EXPECT_EQ(demoted, blocks - path.size());
  for (NodeId id : path) EXPECT_EQ(t.node_tier(id), 0u);
  EXPECT_EQ(t.take_victims(RadixTree::VictimKind::Evict, 0, 1000), 0u);
  t.unpin(path);
  EXPECT_EQ(t.check_invariants(), "");
}

TEST(RadixTree, MatchVariantsAgree) {
  RadixTree t(4);
  t.insert(iota_seq(16), 1);
  t.insert(iota_seq(8, 100), 2);
  for (const auto& probe :
       {iota_seq(16), iota_seq(12), iota_seq(8, 100), iota_seq(16, 100),
        iota_seq(3), tokenizer::TokenSeq{}}) {
    const auto m = t.match(probe);
    EXPECT_EQ(t.match_tokens(probe), m.matched_tokens);
    std::vector<NodeId> path{kNoNode};  // stale content must be cleared
    EXPECT_EQ(t.match_into(probe, path), m.matched_tokens);
    EXPECT_EQ(path, m.path);
  }
}

TEST(RadixTree, DeepSharedHierarchy) {
  RadixTree t(2);
  // 4 sequences sharing progressively longer prefixes.
  t.insert(seq({1, 2, 3, 4, 5, 6}), 1);
  t.insert(seq({1, 2, 3, 4, 9, 9}), 2);
  t.insert(seq({1, 2, 8, 8, 8, 8}), 3);
  // seq1 adds 3 blocks; seq2 reuses 2 and adds 1; seq3 reuses 1, adds 2.
  EXPECT_EQ(t.num_blocks(), 6u);
  EXPECT_EQ(t.match(seq({1, 2, 3, 4, 5, 6})).matched_tokens, 6u);
  EXPECT_EQ(t.match(seq({1, 2, 8, 8})).matched_tokens, 4u);
}

}  // namespace
}  // namespace llmq::cache
