#pragma once
// Twin-cache state comparison for the cache suite: two caches driven by
// the same op stream must agree on every counter, on per-tier residency
// and on the tier split of every prompt. A flat cache reports all of its
// blocks in tier 0 and only GPU tokens from peek_tiers(), so the same
// check covers flat and tiered twins.

#include <gtest/gtest.h>

#include <cstdint>
#include <vector>

#include "cache/prefix_cache.hpp"

namespace llmq::cache_test {

inline void expect_same_state(cache::PrefixCache& a, cache::PrefixCache& b,
                              const std::vector<tokenizer::TokenSeq>& prompts,
                              std::size_t step) {
  const cache::CacheStats sa = a.stats();
  const cache::CacheStats sb = b.stats();
  EXPECT_EQ(sa.lookups, sb.lookups) << "step " << step;
  EXPECT_EQ(sa.hit_tokens, sb.hit_tokens) << "step " << step;
  EXPECT_EQ(sa.lookup_tokens, sb.lookup_tokens) << "step " << step;
  EXPECT_EQ(sa.inserted_blocks, sb.inserted_blocks) << "step " << step;
  EXPECT_EQ(sa.evicted_blocks, sb.evicted_blocks) << "step " << step;
  EXPECT_EQ(sa.demoted_blocks, sb.demoted_blocks) << "step " << step;
  EXPECT_EQ(sa.promoted_blocks, sb.promoted_blocks) << "step " << step;
  for (std::uint8_t tier = 0; tier < 3; ++tier)
    EXPECT_EQ(a.tier_resident_blocks(tier), b.tier_resident_blocks(tier))
        << "step " << step << " tier " << int{tier};
  for (const auto& p : prompts) {
    const cache::TierPeek ta = a.peek_tiers(p);
    const cache::TierPeek tb = b.peek_tiers(p);
    EXPECT_EQ(ta.gpu_tokens, tb.gpu_tokens) << "step " << step;
    EXPECT_EQ(ta.host_tokens, tb.host_tokens) << "step " << step;
    EXPECT_EQ(ta.disk_tokens, tb.disk_tokens) << "step " << step;
  }
}

}  // namespace llmq::cache_test
