// Reference diff for RadixTree's victim heaps.
//
// The tree keeps one heap of victims per tier and updates it wherever a
// node's victim status or stamp changes. ReferenceTree selects victims
// the direct way instead: a scan per victim for the oldest
// (last_access, id) node that is unpinned, at the tier, and a leaf
// (Evict) or without a child at the tier (Demote), over a mirror of
// every node's token path, id, stamp, pins and tier. The churn below
// drives both with the same random ops on tiers {1, 2, 3} and compares,
// after every op, the victims each side took and every node's state.

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <map>
#include <optional>
#include <string>
#include <vector>

#include "cache/radix_tree.hpp"
#include "util/rng.hpp"

namespace llmq::cache {
namespace {

using Kind = RadixTree::VictimKind;

constexpr std::size_t kBlock = 2;

class ReferenceTree {
 public:
  struct Node {
    tokenizer::TokenSeq tokens;  // root-down path, whole blocks
    NodeId parent = 0;           // 0 = the root
    std::uint64_t stamp = 0;
    std::uint32_t pins = 0;
    std::uint8_t tier = 0;
  };

  const std::map<NodeId, Node>& nodes() const { return nodes_; }

  /// Ids of the longest cached block-aligned prefix of `prompt`.
  std::vector<NodeId> match(const tokenizer::TokenSeq& prompt) const {
    std::vector<NodeId> path;
    for (std::size_t len = kBlock; len <= prompt.size(); len += kBlock) {
      const auto it = by_tokens_.find(
          tokenizer::TokenSeq(prompt.begin(), prompt.begin() + len));
      if (it == by_tokens_.end()) break;
      path.push_back(it->second);
    }
    return path;
  }

  /// Mirror RadixTree::insert_into from the tree's resulting `path`: ids
  /// the reference holds are re-stamped, new ones join under the previous
  /// id of the path.
  void insert(const tokenizer::TokenSeq& prompt, std::uint64_t now,
              const std::vector<NodeId>& path) {
    NodeId parent = 0;
    for (std::size_t i = 0; i < path.size(); ++i) {
      const NodeId id = path[i];
      const auto [it, created] = nodes_.try_emplace(id);
      Node& n = it->second;
      if (created) {
        n.tokens.assign(prompt.begin(),
                        prompt.begin() + (i + 1) * kBlock);
        n.parent = parent;
        by_tokens_.emplace(n.tokens, id);
      }
      n.stamp = now;
      parent = id;
    }
  }

  void touch(const std::vector<NodeId>& path, std::uint64_t now) {
    for (NodeId id : path) nodes_.at(id).stamp = now;
  }
  void pin(const std::vector<NodeId>& path) {
    for (NodeId id : path) ++nodes_.at(id).pins;
  }
  void unpin(const std::vector<NodeId>& path) {
    for (NodeId id : path) --nodes_.at(id).pins;
  }
  void promote(const std::vector<NodeId>& path) {
    for (NodeId id : path) nodes_.at(id).tier = 0;
  }

  /// Up to `n` victims, each the oldest (stamp, id) node passing the
  /// victim test on a fresh scan, taken in that order.
  std::vector<NodeId> take_victims(Kind kind, std::uint8_t tier,
                                   std::size_t n) {
    std::vector<NodeId> taken;
    while (taken.size() < n) {
      const std::optional<NodeId> victim = oldest_victim(kind, tier);
      if (!victim) break;
      taken.push_back(*victim);
      if (kind == Kind::Evict) {
        by_tokens_.erase(nodes_.at(*victim).tokens);
        nodes_.erase(*victim);
      } else {
        ++nodes_.at(*victim).tier;
      }
    }
    return taken;
  }

 private:
  std::optional<NodeId> oldest_victim(Kind kind, std::uint8_t tier) const {
    std::map<NodeId, bool> has_child, has_tier_child;
    for (const auto& [id, n] : nodes_) {
      has_child[n.parent] = true;
      if (n.tier == tier) has_tier_child[n.parent] = true;
    }
    std::optional<NodeId> best;
    for (const auto& [id, n] : nodes_) {
      if (n.pins != 0 || n.tier != tier) continue;
      if (kind == Kind::Evict ? has_child.count(id) > 0
                              : has_tier_child.count(id) > 0)
        continue;
      const Node* b = best ? &nodes_.at(*best) : nullptr;
      if (!b || n.stamp < b->stamp || (n.stamp == b->stamp && id < *best))
        best = id;
    }
    return best;
  }

  std::map<NodeId, Node> nodes_;
  std::map<tokenizer::TokenSeq, NodeId> by_tokens_;
};

/// Every reference node is alive in the tree at the same id, path, stamp
/// and tier; counts, pins and the tree's own invariants agree.
void expect_matches_reference(const RadixTree& tree,
                              const ReferenceTree& ref, std::size_t step) {
  SCOPED_TRACE("step " + std::to_string(step));
  ASSERT_EQ(tree.check_invariants(), "");
  ASSERT_EQ(tree.num_blocks(), ref.nodes().size());
  std::size_t per_tier[3] = {0, 0, 0};
  std::size_t pinned = 0;
  std::uint64_t pins = 0;
  for (const auto& [id, n] : ref.nodes()) {
    const RadixTree::Match m = tree.match(n.tokens);
    ASSERT_EQ(m.matched_tokens, n.tokens.size()) << "node " << id;
    ASSERT_EQ(m.path.back(), id);
    EXPECT_EQ(tree.node_tier(id), n.tier) << "node " << id;
    EXPECT_EQ(tree.node_last_access(id), n.stamp) << "node " << id;
    ++per_tier[n.tier];
    pinned += n.pins > 0;
    pins += n.pins;
  }
  for (std::uint8_t t = 0; t < 3; ++t)
    EXPECT_EQ(tree.tier_blocks(t), per_tier[t]) << "tier " << int{t};
  EXPECT_EQ(tree.pinned_blocks(), pinned);
  EXPECT_EQ(tree.total_ref_count(), pins);
}

/// Ids the tree took since `before` was copied: gone, or a tier lower.
std::vector<NodeId> tree_victims(const RadixTree& tree,
                                 const std::map<NodeId, ReferenceTree::Node>&
                                     before) {
  std::vector<NodeId> out;
  for (const auto& [id, n] : before) {
    const RadixTree::Match m = tree.match(n.tokens);
    if (m.matched_tokens != n.tokens.size() || m.path.back() != id ||
        tree.node_tier(id) != n.tier)
      out.push_back(id);
  }
  return out;
}

/// Prompts of 1-6 blocks, each block one of four, so paths share
/// prefixes and fan out.
tokenizer::TokenSeq random_prompt(util::Rng& rng) {
  tokenizer::TokenSeq p;
  const std::size_t blocks = 1 + rng.next_below(6);
  for (std::size_t b = 0; b < blocks; ++b) {
    const auto v = static_cast<TokenId>(rng.next_below(4));
    p.insert(p.end(), {v, static_cast<TokenId>(b)});
  }
  return p;
}

struct ChurnParam {
  std::size_t tiers;
  std::uint64_t seed;
};

class VictimReference : public ::testing::TestWithParam<ChurnParam> {};

TEST_P(VictimReference, HeapsTakeTheScanReferenceVictimsUnderChurn) {
  const ChurnParam p = GetParam();
  util::Rng rng(p.seed * 7919 + p.tiers);
  RadixTree tree(kBlock);
  ReferenceTree ref;
  std::vector<std::vector<NodeId>> leases;
  std::vector<NodeId> path;
  std::uint64_t now = 0;
  std::size_t taken_total = 0, demoted_total = 0;

  // Match `prompt` on both sides; the ids must agree.
  const auto matched = [&](const tokenizer::TokenSeq& prompt) {
    tree.match_into(prompt, path);
    EXPECT_EQ(path, ref.match(prompt));
    return path;
  };

  for (std::size_t step = 0; step < 1500; ++step) {
    const std::uint64_t op = rng.next_below(100);
    if (op < 35) {
      // Insert with a cap, after promoting the matched prefix so the new
      // GPU blocks hang under GPU blocks (tiers stay monotone).
      const auto prompt = random_prompt(rng);
      const auto prefix = matched(prompt);
      tree.promote_path(prefix);
      ref.promote(prefix);
      const std::size_t caps[] = {0, 1, 2, SIZE_MAX};
      tree.insert_into(prompt, ++now, caps[rng.next_below(4)], path);
      ref.insert(prompt, now, path);
    } else if (op < 50) {
      const auto hit = matched(random_prompt(rng));
      tree.touch(hit, ++now);
      ref.touch(hit, now);
    } else if (op < 58) {
      // Pin like a lease: touch, pin, then promote (pinned => GPU).
      const auto hit = matched(random_prompt(rng));
      tree.touch(hit, ++now);
      ref.touch(hit, now);
      tree.pin(hit);
      ref.pin(hit);
      tree.promote_path(hit);
      ref.promote(hit);
      leases.push_back(hit);
    } else if (op < 66) {
      if (leases.empty()) continue;
      const std::size_t i = rng.next_below(leases.size());
      tree.unpin(leases[i]);
      ref.unpin(leases[i]);
      leases.erase(leases.begin() + static_cast<std::ptrdiff_t>(i));
    } else if (op < 76) {
      // Promote a root-down prefix of a match.
      auto hit = matched(random_prompt(rng));
      hit.resize(rng.next_below(hit.size() + 1));
      tree.promote_path(hit);
      ref.promote(hit);
    } else {
      // Demote above the bottom tier, evict at it.
      const auto tier = static_cast<std::uint8_t>(rng.next_below(p.tiers));
      const Kind kind =
          std::size_t{tier} + 1 == p.tiers ? Kind::Evict : Kind::Demote;
      // Like a capacity-bound cache, evict only under pressure, and take
      // all of a tier's victims only now and then, so the tree grows.
      const std::size_t ks[] = {1, 3, SIZE_MAX};
      const std::size_t k = ks[rng.next_below(25) == 0 ? 2 : rng.next_below(2)];
      if (kind == Kind::Evict && k != SIZE_MAX && tree.num_blocks() < 64)
        continue;
      const auto before = ref.nodes();
      const std::size_t got = tree.take_victims(kind, tier, k);
      std::vector<NodeId> want = ref.take_victims(kind, tier, k);
      ASSERT_EQ(got, want.size()) << "step " << step;
      std::sort(want.begin(), want.end());
      ASSERT_EQ(tree_victims(tree, before), want) << "step " << step;
      taken_total += got;
      if (kind == Kind::Demote) demoted_total += got;
    }
    expect_matches_reference(tree, ref, step);
    if (HasFatalFailure()) return;
  }
  // The churn has to take victims (and demote, when there is a tier to
  // demote to) for the diff to mean anything.
  EXPECT_GT(taken_total, 100u);
  if (p.tiers > 1) {
    EXPECT_GT(demoted_total, 50u);
  }
}

INSTANTIATE_TEST_SUITE_P(
    TiersAndSeeds, VictimReference,
    ::testing::Values(ChurnParam{1, 1}, ChurnParam{1, 2}, ChurnParam{2, 1},
                      ChurnParam{2, 2}, ChurnParam{3, 1}, ChurnParam{3, 2}),
    [](const ::testing::TestParamInfo<ChurnParam>& info) {
      return "tiers" + std::to_string(info.param.tiers) + "_seed" +
             std::to_string(info.param.seed);
    });

TEST(VictimHeaps, EvictAboveTheBottomTierThrowsOnANonLeaf) {
  // A demoted leaf leaves its GPU parent with no GPU child: the parent is
  // a victim of tier 0 but not a leaf, so an Evict at tier 0 fails loudly
  // instead of cutting the tree.
  RadixTree tree(kBlock);
  tree.insert(tokenizer::TokenSeq{1, 1, 2, 2}, 1);
  ASSERT_EQ(tree.take_victims(Kind::Demote, 0, 1), 1u);
  EXPECT_THROW(tree.take_victims(Kind::Evict, 0, 1), std::logic_error);
  EXPECT_EQ(tree.num_blocks(), 2u);
  EXPECT_EQ(tree.check_invariants(), "");
}

TEST(VictimHeaps, TiersPastDiskAreRejected) {
  RadixTree tree(kBlock);
  tree.insert(tokenizer::TokenSeq{1, 1}, 1);
  EXPECT_THROW(tree.take_victims(Kind::Demote, 2, 1), std::invalid_argument);
  EXPECT_THROW(tree.take_victims(Kind::Evict, 3, 1), std::invalid_argument);
  EXPECT_EQ(tree.take_victims(Kind::Evict, 2, 1), 0u);
}

}  // namespace
}  // namespace llmq::cache
