// Striped PrefixCache contracts:
//   * striped == unstriped on any serialized operation sequence (the
//     striping is an implementation detail of thread safety, not a
//     behavior change);
//   * peek() stays side-effect-free through the stripe-locked read path —
//     the regression pinned here is peek racing concurrent lookup()s once
//     the cache went sharded;
//   * a multi-threaded churn soak (lookup/admit/release/cancel/evict
//     across N threads) ends with a consistent pin ledger and clean
//     invariants. Run under ASan in the default CI job and under TSan in
//     the LLMQ_SANITIZE=TSAN job.

#include <gtest/gtest.h>

#include <atomic>
#include <numeric>
#include <thread>
#include <vector>

#include "cache/prefix_cache.hpp"
#include "cache_state.hpp"
#include "util/rng.hpp"

namespace llmq::cache {
namespace {

tokenizer::TokenSeq iota_seq(std::size_t n, TokenId start = 0) {
  tokenizer::TokenSeq s(n);
  std::iota(s.begin(), s.end(), start);
  return s;
}

CacheConfig cfg(std::size_t stripes, std::size_t block = 4,
                std::size_t cap = 0) {
  CacheConfig c;
  c.block_size = block;
  c.capacity_blocks = cap;
  c.lock_stripes = stripes;
  return c;
}

/// A deterministic prompt pool with shared prefixes across several
/// "families" (distinct first blocks, spread over stripes by hash).
/// Family bases are random tokens: the stripe of a prompt (its first
/// block's hash modulo the stripe count) depends only on the low bits of
/// those tokens, and per-family runs like 1000*f.. share their low bits,
/// which would put every family on one stripe and leave the cross-stripe
/// victim merge untested.
std::vector<tokenizer::TokenSeq> prompt_pool(std::size_t families,
                                             std::size_t per_family,
                                             std::size_t block) {
  std::vector<tokenizer::TokenSeq> prompts;
  util::Rng rng(97);
  for (std::size_t f = 0; f < families; ++f) {
    tokenizer::TokenSeq base(3 * block);
    for (auto& t : base) t = static_cast<TokenId>(rng.next_u64());
    for (std::size_t i = 0; i < per_family; ++i) {
      tokenizer::TokenSeq p = base;
      const auto tail = iota_seq((i % 3 + 1) * block,
                                 static_cast<TokenId>(1000 * f + 500 + 7 * i));
      p.insert(p.end(), tail.begin(), tail.end());
      prompts.push_back(std::move(p));
    }
  }
  return prompts;
}

void expect_stats_eq(const CacheStats& a, const CacheStats& b) {
  EXPECT_EQ(a.lookups, b.lookups);
  EXPECT_EQ(a.hit_tokens, b.hit_tokens);
  EXPECT_EQ(a.lookup_tokens, b.lookup_tokens);
  EXPECT_EQ(a.inserted_blocks, b.inserted_blocks);
  EXPECT_EQ(a.evicted_blocks, b.evicted_blocks);
}

// ---- Serialized equivalence: striping is behavior-invisible. ----

TEST(CacheConcurrency, StripedMatchesUnstripedSerialized) {
  // The same scripted sequence of lookup/admit/peek/release/cancel/evict
  // against an unstriped and a striped cache must produce identical
  // stats, residency, pins, and per-prompt peek results at every step.
  const auto prompts = prompt_pool(6, 8, 4);
  for (std::size_t stripes : {1u, 4u, 16u}) {
    SCOPED_TRACE("stripes=" + std::to_string(stripes));
    PrefixCache plain(cfg(0, 4, 64));
    PrefixCache striped(cfg(stripes, 4, 64));
    std::vector<CacheLease> plain_leases, striped_leases;
    util::Rng rng(2024);
    for (std::size_t step = 0; step < 400; ++step) {
      const std::size_t op = rng.next_below(10);
      if (op < 4 || plain_leases.empty()) {  // lookup (+ maybe admit)
        const auto& p = prompts[rng.next_below(prompts.size())];
        CacheLease a = plain.lookup(p);
        CacheLease b = striped.lookup(p);
        EXPECT_EQ(a.cached_tokens, b.cached_tokens);
        if (rng.next_below(4) == 0) {  // deferred: cancel the lookup
          plain.cancel_lookup(a, p.size());
          striped.cancel_lookup(b, p.size());
        } else {
          EXPECT_EQ(plain.admit(p, a), striped.admit(p, b));
          plain_leases.push_back(a);
          striped_leases.push_back(b);
        }
      } else if (op < 7) {  // release a random outstanding lease
        const std::size_t i = rng.next_below(plain_leases.size());
        plain.release(plain_leases[i]);
        striped.release(striped_leases[i]);
        plain_leases.erase(plain_leases.begin() + i);
        striped_leases.erase(striped_leases.begin() + i);
      } else if (op < 9) {  // peek a random prompt
        const auto& p = prompts[rng.next_below(prompts.size())];
        EXPECT_EQ(plain.peek(p), striped.peek(p));
      } else {  // evict a couple of blocks
        EXPECT_EQ(plain.evict(2), striped.evict(2));
      }
      expect_stats_eq(plain.stats(), striped.stats());
      EXPECT_EQ(plain.resident_blocks(), striped.resident_blocks());
      EXPECT_EQ(plain.pinned_blocks(), striped.pinned_blocks());
    }
    for (std::size_t i = 0; i < plain_leases.size(); ++i) {
      plain.release(plain_leases[i]);
      striped.release(striped_leases[i]);
    }
    EXPECT_EQ(plain.check_invariants(), "");
    EXPECT_EQ(striped.check_invariants(), "");
    expect_stats_eq(plain.stats(), striped.stats());
  }
}

TEST(CacheConcurrency, EvictionSequenceMatchesUnstripedUnderChurn) {
  // Victim-order regression: under sustained churn on a tight GPU pool
  // (so admits trigger implicit capacity eviction, not just explicit
  // evict() calls), a striped cache must shed exactly the blocks the
  // unstriped one does at every step. On a tiered cache GPU pressure
  // demotes, a bounded host tier cascades to disk (3 tiers) or destroys
  // (2 tiers), and a bounded disk tier destroys. Each stripe heaps its
  // own victims; this pins that the cross-stripe merge by heap-top age
  // reproduces the single-tree order even while leases pin and unpin
  // paths mid-stream: same counters, same per-tier residency, same tier
  // split per prompt.
  const auto prompts = prompt_pool(8, 10, 4);
  for (std::size_t tiers : {1u, 2u, 3u}) {
    for (std::size_t stripes : {2u, 8u, 32u}) {
      SCOPED_TRACE("tiers=" + std::to_string(tiers) +
                   " stripes=" + std::to_string(stripes));
      CacheConfig c = cfg(0, 4, 40);  // tight: ~1/4 of the working set
      c.tiers = tiers;
      c.host_capacity_blocks = 24;
      c.disk_capacity_blocks = 16;
      PrefixCache plain(c);
      c.lock_stripes = stripes;
      PrefixCache striped(c);
      std::vector<CacheLease> plain_leases, striped_leases;
      util::Rng rng(776 + tiers);
      for (std::size_t step = 0; step < 600; ++step) {
        const std::size_t op = rng.next_below(8);
        if (op < 4 || plain_leases.empty()) {
          const auto& p = prompts[rng.next_below(prompts.size())];
          CacheLease a = plain.lookup(p);
          CacheLease b = striped.lookup(p);
          ASSERT_EQ(a.cached_tokens, b.cached_tokens) << "step " << step;
          ASSERT_EQ(a.promoted_host_blocks, b.promoted_host_blocks);
          ASSERT_EQ(a.promoted_disk_blocks, b.promoted_disk_blocks);
          ASSERT_EQ(plain.admit(p, a), striped.admit(p, b));
          plain_leases.push_back(a);
          striped_leases.push_back(b);
        } else if (op < 6) {
          const std::size_t i = rng.next_below(plain_leases.size());
          plain.release(plain_leases[i]);
          striped.release(striped_leases[i]);
          plain_leases.erase(plain_leases.begin() + i);
          striped_leases.erase(striped_leases.begin() + i);
        } else {
          const std::size_t k = 1 + rng.next_below(4);
          ASSERT_EQ(plain.evict(k), striped.evict(k)) << "step " << step;
        }
        ASSERT_EQ(plain.check_invariants(), "") << "step " << step;
        ASSERT_EQ(striped.check_invariants(), "") << "step " << step;
        cache_test::expect_same_state(plain, striped, prompts, step);
        if (::testing::Test::HasFailure()) return;
      }
      for (std::size_t i = 0; i < plain_leases.size(); ++i) {
        plain.release(plain_leases[i]);
        striped.release(striped_leases[i]);
      }
      // The stream must really have reached bottom-tier deaths (and,
      // tiered, demotions on the way down).
      EXPECT_GT(plain.stats().evicted_blocks, 0u);
      if (tiers > 1) {
        EXPECT_GT(plain.stats().demoted_blocks, 0u);
      }
      expect_stats_eq(plain.stats(), striped.stats());
      EXPECT_EQ(plain.check_invariants(), "");
      EXPECT_EQ(striped.check_invariants(), "");
    }
  }
}

// ---- peek() transparency (the satellite regression). ----

TEST(CacheConcurrency, PeekIsSideEffectFreeOnStripedCache) {
  PrefixCache pc(cfg(8));
  const auto prompts = prompt_pool(4, 4, 4);
  for (const auto& p : prompts) {
    auto lease = pc.lookup(p);
    pc.admit(p, lease);
    pc.release(lease);
  }
  const CacheStats before = pc.stats();
  const std::size_t resident = pc.resident_blocks();
  std::vector<std::size_t> first_peek;
  for (const auto& p : prompts) first_peek.push_back(pc.peek(p));
  for (std::size_t round = 0; round < 3; ++round)
    for (std::size_t i = 0; i < prompts.size(); ++i)
      EXPECT_EQ(pc.peek(prompts[i]), first_peek[i]);
  expect_stats_eq(pc.stats(), before);  // no lookup/hit accounting
  EXPECT_EQ(pc.resident_blocks(), resident);
  EXPECT_EQ(pc.pinned_blocks(), 0u);  // no pins taken
  EXPECT_EQ(pc.check_invariants(), "");
}

TEST(CacheConcurrency, PeekRacesMutatorsWithoutCorruption) {
  // The actual race the sharded read path fixes: routers peek() from the
  // driver thread while worker threads mutate the same cache. Pin the
  // absence of data races (TSan) and of accounting corruption (ASan +
  // invariants): peeks never perturb stats, and results stay in range.
  PrefixCache pc(cfg(8, 4, 128));
  const auto prompts = prompt_pool(8, 6, 4);
  std::atomic<bool> stop{false};
  std::atomic<std::uint64_t> peeks_done{0};

  std::vector<std::thread> peekers;
  for (int t = 0; t < 2; ++t)
    peekers.emplace_back([&, t] {
      util::Rng rng(900 + t);
      while (!stop.load(std::memory_order_relaxed)) {
        const auto& p = prompts[rng.next_below(prompts.size())];
        const std::size_t got = pc.peek(p);
        ASSERT_LE(got, p.size());
        ASSERT_EQ(got % 4, 0u);  // block-aligned by contract
        peeks_done.fetch_add(1, std::memory_order_relaxed);
      }
    });

  std::vector<std::thread> mutators;
  for (int t = 0; t < 3; ++t)
    mutators.emplace_back([&, t] {
      util::Rng rng(100 + t);
      for (int i = 0; i < 400; ++i) {
        const auto& p = prompts[rng.next_below(prompts.size())];
        CacheLease lease = pc.lookup(p);
        if (rng.next_below(5) == 0) {
          pc.cancel_lookup(lease, p.size());
          continue;
        }
        pc.admit(p, lease);
        if (rng.next_below(7) == 0) pc.evict(1);
        pc.release(lease);
      }
    });

  for (auto& t : mutators) t.join();
  stop.store(true);
  for (auto& t : peekers) t.join();
  EXPECT_GT(peeks_done.load(), 0u);
  EXPECT_EQ(pc.pinned_blocks(), 0u);
  EXPECT_EQ(pc.check_invariants(), "");
}

// ---- Multi-threaded churn soak. ----

TEST(CacheConcurrency, ConcurrentChurnKeepsLedgersConsistent) {
  // N threads hammer the full mutating API on a capacity-bound striped
  // cache. At join: every pin returned, tree/pool/stats accounting ties
  // out (check_invariants), and the lookup ledger balances exactly —
  // churn is deterministic per thread, so lookups - cancels is exact.
  constexpr std::size_t kThreads = 4;
  constexpr std::size_t kOpsPerThread = 300;
  PrefixCache pc(cfg(8, 4, 96));
  const auto prompts = prompt_pool(8, 8, 4);
  std::atomic<std::uint64_t> lookups{0}, cancels{0};

  std::vector<std::thread> threads;
  for (std::size_t t = 0; t < kThreads; ++t)
    threads.emplace_back([&, t] {
      util::Rng rng(31 * (t + 1));
      std::vector<std::pair<CacheLease, std::size_t>> held;  // lease, tokens
      for (std::size_t i = 0; i < kOpsPerThread; ++i) {
        const std::size_t op = rng.next_below(10);
        if (op < 5) {
          const auto& p = prompts[rng.next_below(prompts.size())];
          CacheLease lease = pc.lookup(p);
          lookups.fetch_add(1, std::memory_order_relaxed);
          ASSERT_LE(lease.cached_tokens, p.size());
          if (rng.next_below(4) == 0) {
            pc.cancel_lookup(lease, p.size());
            cancels.fetch_add(1, std::memory_order_relaxed);
          } else {
            pc.admit(p, lease);
            held.emplace_back(lease, p.size());
          }
        } else if (op < 8 && !held.empty()) {
          const std::size_t j = rng.next_below(held.size());
          pc.release(held[j].first);
          held.erase(held.begin() + j);
        } else if (op < 9) {
          pc.evict(1 + rng.next_below(3));
        } else {
          const auto& p = prompts[rng.next_below(prompts.size())];
          ASSERT_LE(pc.peek(p), p.size());
        }
      }
      for (auto& lt : held) pc.release(lt.first);
    });
  for (auto& t : threads) t.join();

  EXPECT_EQ(pc.pinned_blocks(), 0u);
  EXPECT_EQ(pc.check_invariants(), "");
  const CacheStats s = pc.stats();
  EXPECT_EQ(s.lookups, lookups.load() - cancels.load());
  EXPECT_LE(s.evicted_blocks, s.inserted_blocks);
  EXPECT_LE(pc.resident_blocks(), 96u);
  EXPECT_EQ(pc.resident_blocks(), s.inserted_blocks - s.evicted_blocks);
}

TEST(CacheConcurrency, ConcurrentTieredChurnKeepsTierLedgerConsistent) {
  // The tiered demote/promote paths under the same multi-threaded churn:
  // a tight GPU tier over an unbounded host tier, so eviction pressure
  // constantly demotes and lower-tier hits promote back — all racing
  // across stripes. At join the tier ledger must tie out exactly: one
  // tier per block, promotions never exceed demotions, and nothing was
  // destroyed (the host tier caught every demoted block).
  constexpr std::size_t kThreads = 4;
  constexpr std::size_t kOpsPerThread = 300;
  CacheConfig config = cfg(8, 4, 48);
  config.tiers = 2;
  PrefixCache pc(config);
  const auto prompts = prompt_pool(8, 8, 4);

  std::vector<std::thread> threads;
  for (std::size_t t = 0; t < kThreads; ++t)
    threads.emplace_back([&, t] {
      util::Rng rng(47 * (t + 1));
      std::vector<CacheLease> held;
      for (std::size_t i = 0; i < kOpsPerThread; ++i) {
        const std::size_t op = rng.next_below(10);
        if (op < 5) {
          const auto& p = prompts[rng.next_below(prompts.size())];
          CacheLease lease = pc.lookup(p);
          ASSERT_LE(lease.cached_tokens, p.size());
          if (rng.next_below(4) == 0) {
            pc.cancel_lookup(lease, p.size());
          } else {
            pc.admit(p, lease);
            held.push_back(lease);
          }
        } else if (op < 8 && !held.empty()) {
          const std::size_t j = rng.next_below(held.size());
          pc.release(held[j]);
          held.erase(held.begin() + j);
        } else if (op < 9) {
          pc.evict(1 + rng.next_below(3));  // demotion pressure
        } else {
          const auto& p = prompts[rng.next_below(prompts.size())];
          const auto tp = pc.peek_tiers(p);
          ASSERT_LE(tp.total(), p.size());
        }
      }
      for (auto& lease : held) pc.release(lease);
    });
  for (auto& t : threads) t.join();

  EXPECT_EQ(pc.pinned_blocks(), 0u);
  EXPECT_EQ(pc.check_invariants(), "");
  const CacheStats s = pc.stats();
  EXPECT_LE(pc.gpu_resident_blocks(), 48u);
  EXPECT_EQ(pc.tier_resident_blocks(0) + pc.tier_resident_blocks(1),
            pc.resident_blocks());
  EXPECT_LE(s.promoted_blocks, s.demoted_blocks);
  EXPECT_EQ(s.evicted_blocks, 0u);  // unbounded host: demoted, not killed
  EXPECT_EQ(pc.resident_blocks(), s.inserted_blocks - s.evicted_blocks);
}

}  // namespace
}  // namespace llmq::cache
