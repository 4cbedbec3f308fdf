// Tier-aware routing: PrefixAffinity scores a GPU-resident prefix above
// the same prefix demoted to host, a host hit above a miss, and every
// policy routes around draining replicas.

#include <gtest/gtest.h>

#include <numeric>
#include <vector>

#include "serve/router.hpp"

namespace llmq::serve {
namespace {

using cache::CacheConfig;
using cache::PrefixCache;

tokenizer::TokenSeq iota_prompt(std::size_t n, tokenizer::TokenId start) {
  tokenizer::TokenSeq p(n);
  std::iota(p.begin(), p.end(), start);
  return p;
}

void warm(PrefixCache& c, const tokenizer::TokenSeq& p) {
  auto lease = c.lookup(p);
  c.admit(p, lease);
  c.release(lease);
}

TEST(TierRouting, GpuHitOutranksHostHitOutranksMiss) {
  const auto prompt = iota_prompt(32, 100);
  PrefixCache gpu_hot(
      CacheConfig{.block_size = 4, .capacity_blocks = 8, .tiers = 2});
  PrefixCache host_only(
      CacheConfig{.block_size = 4, .capacity_blocks = 8, .tiers = 2});
  PrefixCache cold(
      CacheConfig{.block_size = 4, .capacity_blocks = 8, .tiers = 2});
  warm(gpu_hot, prompt);
  warm(host_only, prompt);
  // Demote one replica's copy: same matched tokens, lower tier.
  ASSERT_EQ(host_only.evict(host_only.gpu_resident_blocks()), 8u);
  ASSERT_EQ(host_only.tier_resident_blocks(1), 8u);

  Router r(RouterPolicy::PrefixAffinity, 3);
  std::vector<Router::ReplicaView> v(3);
  v[0].cache = &cold;
  v[1].cache = &host_only;
  v[2].cache = &gpu_hot;

  // Full GPU residency wins even from the highest index.
  EXPECT_EQ(r.route(prompt, 0, v), 2u);
  // Without the GPU copy, the host hit still beats the miss — demoted
  // affinity is worth routing for, just less than hot affinity.
  v[2].cache = &cold;
  EXPECT_EQ(r.route(prompt, 0, v), 1u);
  // Routing probes are side-effect-free: nothing got promoted.
  EXPECT_EQ(host_only.tier_resident_blocks(1), 8u);
  EXPECT_EQ(host_only.stats().promoted_blocks, 0u);
}

TEST(TierRouting, FlatCachesPreserveThePreTierOrdering) {
  // With flat caches the tier score is a monotone transform of matched
  // tokens, so the pre-tier winner must still win — including its
  // load-based tie-break.
  const auto prompt = iota_prompt(24, 500);
  PrefixCache a(CacheConfig{4, 0, true});
  PrefixCache b(CacheConfig{4, 0, true});
  warm(a, prompt);
  warm(b, prompt);  // identical affinity: fall through to load
  Router r(RouterPolicy::PrefixAffinity, 2);
  std::vector<Router::ReplicaView> v(2);
  v[0].cache = &a;
  v[1].cache = &b;
  v[0].outstanding_prompt_tokens = 64;
  v[1].outstanding_prompt_tokens = 8;
  EXPECT_EQ(r.route(prompt, 0, v), 1u);
  v[1].outstanding_prompt_tokens = 64;
  EXPECT_EQ(r.route(prompt, 0, v), 0u);  // full tie: lower index
}

TEST(TierRouting, EveryPolicyRoutesAroundDrainingReplicas) {
  const auto prompt = iota_prompt(16, 900);
  PrefixCache warm_cache(CacheConfig{4, 0, true});
  warm(warm_cache, prompt);

  for (const RouterPolicy policy :
       {RouterPolicy::RoundRobin, RouterPolicy::LeastLoaded,
        RouterPolicy::TenantHash, RouterPolicy::PrefixAffinity}) {
    Router r(policy, 3);
    std::vector<Router::ReplicaView> v(3);
    // Make the draining replica the one every heuristic would pick:
    // warmest cache, least load.
    v[1].cache = &warm_cache;
    v[0].outstanding_prompt_tokens = 100;
    v[2].outstanding_prompt_tokens = 200;
    v[1].draining = true;
    for (std::uint32_t tenant = 0; tenant < 6; ++tenant)
      EXPECT_NE(r.route(prompt, tenant, v), 1u)
          << to_string(policy) << " routed to a draining replica";
  }
}

}  // namespace
}  // namespace llmq::serve
