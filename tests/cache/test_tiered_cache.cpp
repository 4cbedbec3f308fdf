// Tier-hierarchy properties: the GPU/host/disk PrefixCache under random
// churn, demotion/promotion round trips, and cascade eviction.
//
// The flat cache's churn suite (test_cache_properties.cpp) pins the radix
// tree's structural invariants; this file adds the tier ledger on top:
// every resident block sits in exactly one tier, bounded tiers respect
// their capacities, demotion moves blocks without destroying them, and a
// lower-tier hit is promoted back before the lease pins it.

#include <gtest/gtest.h>

#include <numeric>
#include <stdexcept>
#include <vector>

#include "cache/prefix_cache.hpp"
#include "cache_state.hpp"
#include "util/rng.hpp"

namespace llmq::cache {
namespace {

tokenizer::TokenSeq random_prompt(util::Rng& rng, std::size_t max_len,
                                  std::size_t vocab) {
  tokenizer::TokenSeq s(1 + rng.next_below(max_len));
  for (auto& t : s)
    t = static_cast<tokenizer::TokenId>(rng.next_below(vocab));
  return s;
}

struct TieredChurnParams {
  std::size_t block;
  std::size_t gpu_cap;   // GPU tier capacity (0 = unbounded)
  std::size_t host_cap;  // host tier capacity (0 = unbounded)
  std::size_t disk_cap;  // disk tier capacity (0 = unbounded)
  std::size_t tiers;     // 2 or 3
  std::uint64_t seed;
};

std::ostream& operator<<(std::ostream& os, const TieredChurnParams& p) {
  return os << "b" << p.block << "g" << p.gpu_cap << "h" << p.host_cap
            << "d" << p.disk_cap << "t" << p.tiers << "s" << p.seed;
}

class TieredChurn : public ::testing::TestWithParam<TieredChurnParams> {};

TEST_P(TieredChurn, TierLedgerHoldsUnderRandomInterleavings) {
  const auto p = GetParam();
  util::Rng rng(p.seed * 9371 + 13);
  PrefixCache cache(CacheConfig{p.block, p.gpu_cap, true, 0, p.tiers,
                                p.host_cap, p.disk_cap});

  std::vector<tokenizer::TokenSeq> prompts;  // shared-prefix-heavy pool
  for (int i = 0; i < 12; ++i)
    prompts.push_back(random_prompt(rng, 6 * p.block, 3));
  std::vector<CacheLease> held;

  for (int step = 0; step < 150; ++step) {
    const auto& prompt = prompts[rng.next_below(prompts.size())];
    switch (rng.next_below(6)) {
      case 0:
      case 1: {  // lookup + admit, keep the lease in flight
        auto lease = cache.lookup(prompt);
        EXPECT_LE(lease.cached_tokens, prompt.size());
        // Everything a lease pins must be GPU-resident: the lookup
        // promotes lower-tier hits before it pins.
        EXPECT_LE(lease.promoted_host_blocks + lease.promoted_disk_blocks,
                  cache.gpu_resident_blocks());
        cache.admit(prompt, lease);
        held.push_back(std::move(lease));
        break;
      }
      case 2: {  // release a random in-flight lease
        if (held.empty()) break;
        const std::size_t i = rng.next_below(held.size());
        cache.release(held[i]);
        held[i] = std::move(held.back());
        held.pop_back();
        break;
      }
      case 3:  // GPU pressure => demotion, not destruction
        cache.evict(1 + rng.next_below(4));
        break;
      case 4: {  // read-only tier probe
        const TierPeek tp = cache.peek_tiers(prompt);
        EXPECT_EQ(tp.total(), cache.peek(prompt));
        if (p.tiers < 3) {
          EXPECT_EQ(tp.disk_tokens, 0u);
        }
        break;
      }
      case 5: {  // the deferred-admission path
        auto lease = cache.lookup(prompt);
        cache.cancel_lookup(lease, prompt.size());
        break;
      }
    }

    // The tier ledger, every step: one tier per block, caps respected.
    ASSERT_EQ(cache.check_invariants(), "") << "step " << step;
    const std::size_t gpu = cache.tier_resident_blocks(0);
    const std::size_t host = cache.tier_resident_blocks(1);
    const std::size_t disk = cache.tier_resident_blocks(2);
    ASSERT_EQ(gpu + host + disk, cache.resident_blocks()) << "step " << step;
    ASSERT_EQ(gpu, cache.gpu_resident_blocks()) << "step " << step;
    if (p.gpu_cap) {
      ASSERT_LE(gpu, p.gpu_cap) << "step " << step;
    }
    if (p.host_cap) {
      ASSERT_LE(host, p.host_cap) << "step " << step;
    }
    if (p.disk_cap) {
      ASSERT_LE(disk, p.disk_cap) << "step " << step;
    }
    if (p.tiers < 3) {
      ASSERT_EQ(disk, 0u) << "step " << step;
    }
    // Only demoted blocks can ever be promoted back.
    ASSERT_LE(cache.stats().promoted_blocks, cache.stats().demoted_blocks);
    // Tiering never destroys a block that a flat cache would have kept:
    // residency still reconciles against the insert/evict counters.
    ASSERT_EQ(cache.resident_blocks(),
              cache.stats().inserted_blocks - cache.stats().evicted_blocks);
  }

  // Drain: release everything, then the whole hierarchy must empty.
  for (auto& lease : held) cache.release(lease);
  cache.evict(cache.resident_blocks());
  // evict() only pushes GPU blocks down / out; lower tiers may retain
  // blocks. Those are unreachable from leases now, so repeated lookups
  // must still hit them (demotion preserved the bytes).
  EXPECT_EQ(cache.gpu_resident_blocks() + cache.tier_resident_blocks(1) +
                cache.tier_resident_blocks(2),
            cache.resident_blocks());
  EXPECT_EQ(cache.check_invariants(), "");
}

std::vector<TieredChurnParams> tiered_sweep() {
  std::vector<TieredChurnParams> out;
  for (std::uint64_t seed = 1; seed <= 20; ++seed) {
    const std::size_t blocks[] = {2, 4, 8};
    const std::size_t gpu_caps[] = {6, 10, 16};    // tight => demotion churn
    const std::size_t host_caps[] = {0, 8, 12};    // 0 = unbounded host
    const std::size_t tiers = 2 + seed % 2;        // alternate 2 / 3 tiers
    out.push_back(TieredChurnParams{blocks[seed % 3],
                                    gpu_caps[(seed / 2) % 3],
                                    host_caps[(seed / 3) % 3],
                                    (tiers == 3 && seed % 4 == 0)
                                        ? std::size_t{10}
                                        : std::size_t{0},
                                    tiers, seed});
  }
  return out;
}

INSTANTIATE_TEST_SUITE_P(Sweep, TieredChurn,
                         ::testing::ValuesIn(tiered_sweep()));

TEST(TieredCache, UnpressuredTieredMatchesFlatExactly) {
  // With an unbounded GPU tier nothing ever demotes, so a tiered cache
  // must be observationally identical to the flat one — the tiers=1
  // bit-identity contract, exercised from the other side.
  util::Rng rng(77);
  PrefixCache flat(CacheConfig{4, 0, true});
  PrefixCache tiered(CacheConfig{4, 0, true, 0, 3, 0, 0});
  std::vector<tokenizer::TokenSeq> prompts;
  for (int i = 0; i < 10; ++i) prompts.push_back(random_prompt(rng, 24, 3));

  for (int step = 0; step < 200; ++step) {
    const auto& prompt = prompts[rng.next_below(prompts.size())];
    auto a = flat.lookup(prompt);
    auto b = tiered.lookup(prompt);
    ASSERT_EQ(a.cached_tokens, b.cached_tokens) << "step " << step;
    ASSERT_EQ(b.promoted_host_blocks, 0u);
    ASSERT_EQ(b.promoted_disk_blocks, 0u);
    flat.admit(prompt, a);
    tiered.admit(prompt, b);
    flat.release(a);
    tiered.release(b);
  }
  EXPECT_EQ(tiered.stats().demoted_blocks, 0u);
  EXPECT_EQ(tiered.stats().promoted_blocks, 0u);
  EXPECT_EQ(flat.resident_blocks(), tiered.resident_blocks());
  EXPECT_EQ(flat.stats().hit_tokens, tiered.stats().hit_tokens);
  EXPECT_EQ(flat.stats().inserted_blocks, tiered.stats().inserted_blocks);
}

TEST(TieredCache, DemotionPreservesHitsAndPromotionRestoresGpu) {
  // Flat caches destroy what they evict; tiered caches demote. The same
  // pressure that would zero a flat cache's hit rate must leave a tiered
  // cache able to serve the prefix from host — at a price the lease
  // reports so the engine can charge it.
  PrefixCache cache(CacheConfig{4, 4, true, 0, 2, 0, 0});
  tokenizer::TokenSeq prompt(16);
  std::iota(prompt.begin(), prompt.end(), 100u);

  auto lease = cache.lookup(prompt);
  EXPECT_EQ(lease.cached_tokens, 0u);
  cache.admit(prompt, lease);
  cache.release(lease);
  EXPECT_EQ(cache.gpu_resident_blocks(), 4u);

  // Pressure: push everything off the GPU.
  EXPECT_EQ(cache.evict(4), 4u);
  EXPECT_EQ(cache.gpu_resident_blocks(), 0u);
  EXPECT_EQ(cache.tier_resident_blocks(1), 4u);
  EXPECT_EQ(cache.stats().demoted_blocks, 4u);
  EXPECT_EQ(cache.stats().evicted_blocks, 0u);  // nothing destroyed

  // The prefix still hits — from host, promoted back to GPU and priced.
  auto again = cache.lookup(prompt);
  EXPECT_EQ(again.cached_tokens, 16u);
  EXPECT_EQ(again.promoted_host_blocks, 4u);
  EXPECT_EQ(cache.gpu_resident_blocks(), 4u);
  EXPECT_EQ(cache.tier_resident_blocks(1), 0u);
  EXPECT_EQ(cache.stats().promoted_blocks, 4u);
  cache.admit(prompt, again);
  cache.release(again);
  EXPECT_EQ(cache.check_invariants(), "");
}

TEST(TieredCache, HostPressureCascadesToDiskThenDestroys) {
  // tiers=3: host overflow demotes to disk; disk overflow (or tiers=2
  // host overflow) is destroyed for real and shows up in evicted_blocks.
  PrefixCache cascade(CacheConfig{2, 2, true, 0, 3, 2, 2});
  PrefixCache two_tier(CacheConfig{2, 2, true, 0, 2, 2, 0});

  // Three disjoint 2-block prompts = 6 blocks through a 2-block GPU.
  for (int i = 0; i < 3; ++i) {
    tokenizer::TokenSeq prompt(4);
    std::iota(prompt.begin(), prompt.end(),
              static_cast<tokenizer::TokenId>(1000 * (i + 1)));
    for (PrefixCache* c : {&cascade, &two_tier}) {
      auto lease = c->lookup(prompt);
      c->admit(prompt, lease);
      c->release(lease);
      c->evict(c->gpu_resident_blocks());  // force full demotion each round
    }
  }
  // Cascade cache: 2 blocks per tier below GPU, nothing destroyed until
  // the disk tier itself overflows.
  EXPECT_LE(cascade.tier_resident_blocks(1), 2u);
  EXPECT_LE(cascade.tier_resident_blocks(2), 2u);
  EXPECT_GT(cascade.tier_resident_blocks(2), 0u);
  // Two-tier cache: host overflow had nowhere to go.
  EXPECT_LE(two_tier.tier_resident_blocks(1), 2u);
  EXPECT_EQ(two_tier.tier_resident_blocks(2), 0u);
  EXPECT_GT(two_tier.stats().evicted_blocks, 0u);
  EXPECT_EQ(cascade.check_invariants(), "");
  EXPECT_EQ(two_tier.check_invariants(), "");
}

// ---- Batch victims == one-by-one victims. ----

struct BatchParams {
  std::size_t tiers;
  std::size_t stripes;
};

std::ostream& operator<<(std::ostream& os, const BatchParams& p) {
  return os << "t" << p.tiers << "s" << p.stripes;
}

class BatchVictims : public ::testing::TestWithParam<BatchParams> {};

TEST_P(BatchVictims, EvictOfKMatchesKEvictsOfOne) {
  // One seeded op stream drives twin caches; on every evict op one twin
  // takes k victims in one call (one heap per stripe, merged) and the
  // other takes them one call at a time (a fresh scan per victim). The
  // batch must pick exactly the blocks the per-victim loop picks — GPU
  // demotions, host->disk cascades and bottom-tier deaths included — so
  // the twins agree on every counter, tier and per-prompt tier split.
  const BatchParams p = GetParam();
  CacheConfig c{2, 12, true, p.stripes, p.tiers, 8, 6};
  PrefixCache batch(c);
  PrefixCache single(c);
  util::Rng rng(4242 + 10 * p.tiers + p.stripes);
  std::vector<tokenizer::TokenSeq> prompts;
  for (int i = 0; i < 16; ++i) prompts.push_back(random_prompt(rng, 14, 3));
  std::vector<CacheLease> held_batch, held_single;

  for (std::size_t step = 0; step < 300; ++step) {
    const auto& prompt = prompts[rng.next_below(prompts.size())];
    switch (rng.next_below(6)) {
      case 0:
      case 1: {  // lookup + admit, keep the lease in flight
        CacheLease a = batch.lookup(prompt);
        CacheLease b = single.lookup(prompt);
        ASSERT_EQ(a.cached_tokens, b.cached_tokens) << "step " << step;
        ASSERT_EQ(batch.admit(prompt, a), single.admit(prompt, b));
        held_batch.push_back(std::move(a));
        held_single.push_back(std::move(b));
        break;
      }
      case 2:
      case 3: {  // release a random in-flight lease
        if (held_batch.empty()) break;
        const std::size_t i = rng.next_below(held_batch.size());
        batch.release(held_batch[i]);
        single.release(held_single[i]);
        held_batch.erase(held_batch.begin() + static_cast<std::ptrdiff_t>(i));
        held_single.erase(held_single.begin() +
                          static_cast<std::ptrdiff_t>(i));
        break;
      }
      default: {  // k victims at once vs one at a time
        const std::size_t k = 1 + rng.next_below(6);
        std::size_t one_by_one = 0;
        for (std::size_t i = 0; i < k; ++i) one_by_one += single.evict(1);
        ASSERT_EQ(batch.evict(k), one_by_one) << "step " << step;
        break;
      }
    }
    ASSERT_EQ(batch.check_invariants(), "") << "step " << step;
    ASSERT_EQ(single.check_invariants(), "") << "step " << step;
    cache_test::expect_same_state(batch, single, prompts, step);
    if (::testing::Test::HasFailure()) return;
  }
  // The stream must really have exercised the victim paths.
  EXPECT_GT(batch.stats().evicted_blocks, 0u);
  if (p.tiers > 1) {
    EXPECT_GT(batch.stats().demoted_blocks, 0u);
  }
}

std::vector<BatchParams> batch_sweep() {
  std::vector<BatchParams> out;
  for (std::size_t tiers : {1u, 2u, 3u})
    for (std::size_t stripes : {0u, 2u, 8u}) out.push_back({tiers, stripes});
  return out;
}

INSTANTIATE_TEST_SUITE_P(TiersByStripes, BatchVictims,
                         ::testing::ValuesIn(batch_sweep()));

TEST(TieredCache, TierCountOutsideOneToThreeIsRejected) {
  for (std::size_t tiers : {0u, 4u, 17u}) {
    CacheConfig c{4, 8, true};
    c.tiers = tiers;
    EXPECT_THROW(PrefixCache{c}, std::invalid_argument) << "tiers=" << tiers;
  }
  for (std::size_t tiers : {1u, 2u, 3u}) {
    CacheConfig c{4, 8, true};
    c.tiers = tiers;
    EXPECT_NO_THROW(PrefixCache{c}) << "tiers=" << tiers;
  }
}

TEST(TieredCache, PinnedBlocksAreNeverDemoted) {
  // A lease pins the GPU copy; pressure must route around it.
  PrefixCache cache(CacheConfig{4, 4, true, 0, 2, 0, 0});
  tokenizer::TokenSeq prompt(16);
  std::iota(prompt.begin(), prompt.end(), 7u);
  auto lease = cache.lookup(prompt);
  cache.admit(prompt, lease);  // lease still held
  EXPECT_EQ(cache.evict(4), 0u);
  EXPECT_EQ(cache.gpu_resident_blocks(), 4u);
  EXPECT_EQ(cache.stats().demoted_blocks, 0u);
  cache.release(lease);
  EXPECT_EQ(cache.evict(4), 4u);
  EXPECT_EQ(cache.tier_resident_blocks(1), 4u);
  EXPECT_EQ(cache.check_invariants(), "");
}

}  // namespace
}  // namespace llmq::cache
