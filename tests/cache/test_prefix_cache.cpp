#include "cache/prefix_cache.hpp"

#include <gtest/gtest.h>

#include <cstring>
#include <numeric>

namespace llmq::cache {
namespace {

tokenizer::TokenSeq iota_seq(std::size_t n, TokenId start = 0) {
  tokenizer::TokenSeq s(n);
  std::iota(s.begin(), s.end(), start);
  return s;
}

CacheConfig cfg(std::size_t block = 4, std::size_t cap = 0, bool on = true) {
  CacheConfig c;
  c.block_size = block;
  c.capacity_blocks = cap;
  c.enabled = on;
  return c;
}

TEST(PrefixCache, ColdLookupMisses) {
  PrefixCache pc(cfg());
  const auto p = iota_seq(16);
  auto lease = pc.lookup(p);
  EXPECT_EQ(lease.cached_tokens, 0u);
  EXPECT_EQ(pc.stats().hit_tokens, 0u);
  EXPECT_EQ(pc.stats().lookup_tokens, 16u);
}

TEST(PrefixCache, AdmitThenHit) {
  PrefixCache pc(cfg());
  const auto p = iota_seq(16);
  auto lease = pc.lookup(p);
  pc.admit(p, lease);
  pc.release(lease);
  auto lease2 = pc.lookup(p);
  EXPECT_EQ(lease2.cached_tokens, 16u);
  EXPECT_DOUBLE_EQ(pc.stats().hit_rate(), 0.5);  // 16 of 32 looked-up tokens
  pc.release(lease2);
}

TEST(PrefixCache, DisabledCacheNeverHits) {
  PrefixCache pc(cfg(4, 0, /*on=*/false));
  const auto p = iota_seq(16);
  auto lease = pc.lookup(p);
  EXPECT_EQ(pc.admit(p, lease), 0u);
  auto lease2 = pc.lookup(p);
  EXPECT_EQ(lease2.cached_tokens, 0u);
  EXPECT_EQ(pc.resident_blocks(), 0u);
}

TEST(PrefixCache, DisabledCacheReportsNoLookupTraffic) {
  // Regression: lookups/lookup_tokens used to be counted before the
  // enabled check, so "No Cache" runs reported nonzero lookup traffic and
  // skewed hit-rate denominators in the ablation benches.
  PrefixCache pc(cfg(4, 0, /*on=*/false));
  const auto p = iota_seq(16);
  for (int i = 0; i < 3; ++i) {
    auto lease = pc.lookup(p);
    pc.admit(p, lease);
    pc.release(lease);
  }
  EXPECT_EQ(pc.stats().lookups, 0u);
  EXPECT_EQ(pc.stats().lookup_tokens, 0u);
  EXPECT_EQ(pc.stats().hit_tokens, 0u);
  EXPECT_DOUBLE_EQ(pc.stats().hit_rate(), 0.0);
}

TEST(PrefixCache, PeekMatchesLookupWithoutSideEffects) {
  PrefixCache pc(cfg());
  const auto p = iota_seq(16);
  EXPECT_EQ(pc.peek(p), 0u);  // cold
  auto lease = pc.lookup(p);
  pc.admit(p, lease);
  pc.release(lease);

  const CacheStats before = pc.stats();
  auto partial = iota_seq(16);
  partial[12] = 999;  // last block diverges
  EXPECT_EQ(pc.peek(p), 16u);
  EXPECT_EQ(pc.peek(partial), 12u);
  EXPECT_EQ(pc.peek(iota_seq(16, 500)), 0u);
  // No stats movement, no pinning, no insertions.
  EXPECT_EQ(pc.stats().lookups, before.lookups);
  EXPECT_EQ(pc.stats().hit_tokens, before.hit_tokens);
  EXPECT_EQ(pc.stats().lookup_tokens, before.lookup_tokens);
  EXPECT_EQ(pc.resident_blocks(), 4u);

  PrefixCache off(cfg(4, 0, /*on=*/false));
  EXPECT_EQ(off.peek(p), 0u);
}

TEST(PrefixCache, PeekDoesNotTouchLruRecency) {
  // A admitted before B; peeking A (however often) must not refresh its
  // recency, so A's leaf is still the LRU eviction victim.
  PrefixCache pc(cfg());
  const auto a = iota_seq(8, 0);
  const auto b = iota_seq(8, 100);
  auto la = pc.lookup(a);
  pc.admit(a, la);
  pc.release(la);
  auto lb = pc.lookup(b);
  pc.admit(b, lb);
  pc.release(lb);
  ASSERT_EQ(pc.resident_blocks(), 4u);

  for (int i = 0; i < 10; ++i) EXPECT_EQ(pc.peek(a), 8u);
  EXPECT_EQ(pc.evict(1), 1u);
  EXPECT_EQ(pc.peek(a), 4u);  // A's leaf was evicted despite the peeks
  EXPECT_EQ(pc.peek(b), 8u);
}

TEST(PrefixCache, SharedPrefixAcrossRequests) {
  PrefixCache pc(cfg());
  auto a = iota_seq(16);
  auto b = iota_seq(16);
  b[12] = 999;  // last block differs
  auto la = pc.lookup(a);
  pc.admit(a, la);
  pc.release(la);
  auto lb = pc.lookup(b);
  EXPECT_EQ(lb.cached_tokens, 12u);
  pc.admit(b, lb);
  pc.release(lb);
  EXPECT_EQ(pc.resident_blocks(), 5u);  // 4 + 1 divergent
}

TEST(PrefixCache, CapacityEvictsLru) {
  PrefixCache pc(cfg(4, /*cap=*/4));
  // Fill with request A (4 blocks), release, then admit B (4 blocks).
  const auto a = iota_seq(16, 0);
  const auto b = iota_seq(16, 100);
  auto la = pc.lookup(a);
  pc.admit(a, la);
  pc.release(la);
  auto lb = pc.lookup(b);
  pc.admit(b, lb);
  pc.release(lb);
  EXPECT_LE(pc.resident_blocks(), 4u);
  EXPECT_GT(pc.stats().evicted_blocks, 0u);
}

TEST(PrefixCache, PinnedLeaseSurvivesPressure) {
  PrefixCache pc(cfg(4, /*cap=*/4));
  const auto a = iota_seq(16, 0);
  auto la = pc.lookup(a);
  pc.admit(a, la);  // pinned, 4 blocks
  const auto b = iota_seq(16, 100);
  auto lb = pc.lookup(b);
  pc.admit(b, lb);  // nothing evictable; b admitted partially or not at all
  // a's full path must still hit.
  EXPECT_EQ(pc.resident_blocks(), 4u);
  pc.release(la);
  pc.release(lb);
  auto la2 = pc.lookup(a);
  EXPECT_EQ(la2.cached_tokens, 16u);
  pc.release(la2);
}

TEST(PrefixCache, StaleLeaseAdmitFreesNothing) {
  // Regression: admit() sized its insert from the lease's lookup-time
  // path. A lease taken before another request admitted the same prompt
  // then evicted 4 resident blocks to make room for blocks that were
  // already cached, and inserted them again (inserted_blocks 10, not 6).
  PrefixCache pc(cfg(4, /*cap=*/6));
  const auto a = iota_seq(16, 0);
  auto first = pc.lookup(a);
  auto second = pc.lookup(a);  // both miss: the cache is empty
  pc.admit(a, first);
  pc.release(first);
  const auto b = iota_seq(8, 100);
  auto filler = pc.lookup(b);
  pc.admit(b, filler);
  ASSERT_EQ(pc.resident_blocks(), 6u);  // the pool is full

  EXPECT_EQ(pc.admit(a, second), 0u);
  EXPECT_EQ(pc.stats().evicted_blocks, 0u);
  EXPECT_EQ(pc.stats().inserted_blocks, 6u);
  EXPECT_EQ(second.cached_tokens, 16u);
  EXPECT_EQ(pc.check_invariants(), "");
  pc.release(second);
  pc.release(filler);
  EXPECT_EQ(pc.check_invariants(), "");
}

TEST(PrefixCache, EngineDrivenEvict) {
  PrefixCache pc(cfg(4, 0));
  const auto a = iota_seq(16);
  auto la = pc.lookup(a);
  pc.admit(a, la);
  pc.release(la);
  EXPECT_EQ(pc.resident_blocks(), 4u);
  EXPECT_EQ(pc.evict(2), 2u);
  EXPECT_EQ(pc.resident_blocks(), 2u);
}

TEST(PrefixCache, BlocksNeededArithmetic) {
  PrefixCache pc(cfg(4, 0));
  EXPECT_EQ(pc.blocks_needed(16, 0), 4u);
  EXPECT_EQ(pc.blocks_needed(16, 8), 2u);
  EXPECT_EQ(pc.blocks_needed(18, 16), 0u);  // partial tail not cached
  EXPECT_EQ(pc.blocks_needed(3, 0), 0u);
}

TEST(PrefixCache, StatsAccumulate) {
  PrefixCache pc(cfg());
  const auto p = iota_seq(8);
  for (int i = 0; i < 3; ++i) {
    auto lease = pc.lookup(p);
    pc.admit(p, lease);
    pc.release(lease);
  }
  EXPECT_EQ(pc.stats().lookups, 3u);
  EXPECT_EQ(pc.stats().lookup_tokens, 24u);
  EXPECT_EQ(pc.stats().hit_tokens, 16u);  // 2nd and 3rd fully cached
  EXPECT_EQ(pc.stats().inserted_blocks, 2u);
}

TEST(CacheStatsDelta, AccumulateAndDeltaAreExactInverses) {
  CacheStats a{10, 20, 30, 40, 50};
  const CacheStats b{1, 2, 3, 4, 5};
  const CacheStats d = a - b;
  EXPECT_EQ(d.lookups, 9u);
  EXPECT_EQ(d.hit_tokens, 18u);
  EXPECT_EQ(d.lookup_tokens, 27u);
  EXPECT_EQ(d.inserted_blocks, 36u);
  EXPECT_EQ(d.evicted_blocks, 45u);
  CacheStats back = d;
  back += b;
  EXPECT_EQ(back.lookups, a.lookups);
  EXPECT_EQ(back.evicted_blocks, a.evicted_blocks);
}

TEST(CacheStatsDelta, EveryFieldParticipatesInTheDelta) {
  // Byte-pattern check that does NOT enumerate fields: fill one stats
  // block with 0x02 bytes and another with 0x01 bytes. Since CacheStats
  // is purely uint64 counters (the static_assert next to the operators
  // pins the size), a correct field-wise subtraction yields exactly the
  // 0x01 pattern. A counter added to the struct but missed in
  // operator-= keeps its 0x02 bytes and fails the comparison — this is
  // the test the old hand-subtracting EngineSession::metrics() had no
  // analogue of.
  const auto pattern = [](unsigned char byte) {
    unsigned char buf[sizeof(CacheStats)];
    std::memset(buf, byte, sizeof buf);
    CacheStats s;
    std::memcpy(&s, buf, sizeof s);
    return s;
  };
  const CacheStats hi = pattern(0x02), lo = pattern(0x01);
  const CacheStats expect = pattern(0x01);
  const CacheStats d = hi - lo;
  EXPECT_EQ(std::memcmp(&d, &expect, sizeof d), 0)
      << "a CacheStats field was skipped by operator-=";
  CacheStats sum = lo;
  sum += lo;
  const CacheStats expect_sum = pattern(0x02);
  EXPECT_EQ(std::memcmp(&sum, &expect_sum, sizeof sum), 0)
      << "a CacheStats field was skipped by operator+=";
}

}  // namespace
}  // namespace llmq::cache
