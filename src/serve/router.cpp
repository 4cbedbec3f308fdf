#include "serve/router.hpp"

#include <stdexcept>

#include "util/rng.hpp"

namespace llmq::serve {

std::string to_string(RouterPolicy p) {
  switch (p) {
    case RouterPolicy::RoundRobin: return "RoundRobin";
    case RouterPolicy::LeastLoaded: return "LeastLoaded";
    case RouterPolicy::TenantHash: return "TenantHash";
    case RouterPolicy::PrefixAffinity: return "PrefixAffinity";
  }
  return "?";
}

namespace {

/// Tenant ids are small sequential integers, so a plain modulo would map
/// tenants 0..n-1 to replicas 0..n-1 in lockstep — fine until tenant load
/// is skewed (it is: Zipf), at which point the hot tenants all sit on the
/// low replicas. Mix through the splitmix64 finalizer first.
std::uint64_t mix_tenant(std::uint32_t tenant) { return util::hash64(tenant); }

/// PrefixAffinity abandons locality for balance when the preferred
/// replica's outstanding prompt tokens exceed this multiple of the
/// least-loaded replica's (plus the routed prompt, so near-idle fleets
/// don't spill on noise).
constexpr std::size_t kSpillFactor = 2;

/// Tier-weighted affinity score: a GPU-resident match is worth promoting
/// traffic toward more than a host match (which pays a PCIe transfer on
/// hit) more than a disk match. On a flat cache every matched token is
/// GPU-resident, so the score is 4x the classic longest-prefix probe — a
/// strictly monotone transform that preserves every comparison AND every
/// tie, keeping flat routing bit-identical.
std::size_t tier_score(const Router::ReplicaView& v,
                       std::span<const cache::TokenId> prompt) {
  if (!v.cache) return 0;
  const cache::TierPeek p = v.cache->peek_tiers(prompt);
  return 4 * p.gpu_tokens + 2 * p.host_tokens + p.disk_tokens;
}

}  // namespace

Router::Router(RouterPolicy policy, std::size_t n_replicas)
    : policy_(policy), n_(n_replicas) {
  if (n_ == 0)
    throw std::invalid_argument("Router: n_replicas must be positive");
}

std::size_t Router::route(std::span<const cache::TokenId> prompt,
                          std::uint32_t tenant,
                          const std::vector<ReplicaView>& views) {
  if (views.size() != n_)
    throw std::invalid_argument("Router::route: views.size() != n_replicas");
  if (n_ == 1) return 0;

  switch (policy_) {
    case RouterPolicy::RoundRobin: {
      // Advance past draining replicas; with none draining this is the
      // classic take-and-increment.
      std::size_t r = rr_next_;
      for (std::size_t tries = 0; tries + 1 < n_ && views[r].draining;
           ++tries)
        r = (r + 1) % n_;
      rr_next_ = (r + 1) % n_;
      return r;
    }
    case RouterPolicy::LeastLoaded: {
      std::size_t best = n_;
      for (std::size_t r = 0; r < n_; ++r) {
        if (views[r].draining) continue;
        if (best == n_ || views[r].outstanding_prompt_tokens <
                              views[best].outstanding_prompt_tokens)
          best = r;
      }
      return best == n_ ? 0 : best;
    }
    case RouterPolicy::TenantHash: {
      // Linear-probe past draining replicas from the hashed home slot.
      std::size_t r = static_cast<std::size_t>(mix_tenant(tenant) % n_);
      for (std::size_t tries = 0; tries + 1 < n_ && views[r].draining;
           ++tries)
        r = (r + 1) % n_;
      return r;
    }
    case RouterPolicy::PrefixAffinity: {
      // Best tier-weighted cached prefix wins (GPU > host > disk; see
      // tier_score); among equals, least outstanding load; among those,
      // the lowest index. A replica without a probe handle counts as a
      // zero match; draining replicas are never candidates.
      std::size_t best = n_;
      std::size_t best_match = 0;
      std::size_t least = n_;
      for (std::size_t r = 0; r < n_; ++r) {
        if (views[r].draining) continue;
        const std::size_t match = tier_score(views[r], prompt);
        if (best == n_ || match > best_match ||
            (match == best_match &&
             views[r].outstanding_prompt_tokens <
                 views[best].outstanding_prompt_tokens)) {
          best = r;
          best_match = match;
        }
        if (least == n_ || views[r].outstanding_prompt_tokens <
                               views[least].outstanding_prompt_tokens)
          least = r;
      }
      if (best == n_) return 0;  // everything draining (callers prevent)
      // Nothing cached anywhere: a load tie-break would deal a cold
      // same-prefix burst (a whole window dispatches before any prefill
      // admits blocks) across every replica, duplicating the prefix
      // fleet-wide. Fall back to the tenant hash so cold bursts stay
      // together and the first prefill creates affinity on one replica.
      std::size_t preferred = best;
      if (best_match == 0) {
        preferred = static_cast<std::size_t>(mix_tenant(tenant) % n_);
        for (std::size_t tries = 0;
             tries + 1 < n_ && views[preferred].draining; ++tries)
          preferred = (preferred + 1) % n_;
      }
      // Load guard (the usual cache-aware-router spill rule): pure
      // affinity turns into a hotspot amplifier once one prefix's traffic
      // exceeds a replica, so when the preferred replica's backlog tops
      // kSpillFactor x the fleet minimum (+ this prompt), take the
      // locality loss and spill to the least-loaded replica instead.
      if (views[preferred].outstanding_prompt_tokens >
          kSpillFactor *
              (views[least].outstanding_prompt_tokens + prompt.size()))
        return least;
      return preferred;
    }
  }
  return 0;
}

}  // namespace llmq::serve
