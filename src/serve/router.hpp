#pragma once
// Replica router: dispatch scheduled requests across N serving replicas.
//
// A replica is an independent ServingEngine + PrefixCache + EngineSession;
// nothing is shared between replicas, so where a request lands decides
// which radix tree its prefix can hit. Naive routing (round-robin) deals
// consecutive requests to different replicas — exactly the requests the
// windowed-GGR scheduler just ordered to be prefix-adjacent — and so
// destroys the locality the reordering created. Cache-affinity routing is
// the serving-layer dual of the paper's reordering idea: reordering makes
// prefix-sharing requests *temporally* adjacent, affinity routing keeps
// them *spatially* together on the replica that already holds the prefix.
//
// Policies:
//   * RoundRobin     — cycle replicas; the locality-oblivious baseline;
//   * LeastLoaded    — fewest outstanding prompt tokens (join the
//                      shortest queue, measured in work not requests);
//   * TenantHash     — hash the tenant id; same tenant, same replica —
//                      affinity without probing, blind to load and to
//                      cross-tenant sharing;
//   * PrefixAffinity — probe every replica's radix tree with the
//                      read-only PrefixCache::peek_tiers() path and pick
//                      the best TIER-WEIGHTED cached prefix (a GPU-
//                      resident hit outranks a host hit outranks a disk
//                      hit: score = 4*gpu + 2*host + 1*disk matched
//                      tokens — on a flat cache that is 4*peek(), a
//                      monotone transform, so flat routing is identical
//                      to the historical longest-prefix rule including
//                      every tie), tie-breaking by load; when
//                      nothing is cached anywhere it falls back to the
//                      tenant hash (not load), so a cold same-prefix
//                      burst lands on one replica instead of being dealt
//                      across the fleet before its first prefill admits;
//                      and when the preferred replica's backlog exceeds
//                      2x the fleet minimum it spills to the
//                      least-loaded replica — affinity with a load
//                      guard, so a hot prefix cannot pin its whole
//                      tenant to one overloaded replica.
//
// The probe contract: route() only ever calls the const peek() path — no
// LRU touch, no pin, no stats. Losing a routing comparison must not
// perturb a replica's cache, or the probes themselves would skew the
// recency order they are probing.

#include <cstdint>
#include <span>
#include <string>
#include <vector>

#include "cache/prefix_cache.hpp"

namespace llmq::serve {

enum class RouterPolicy { RoundRobin, LeastLoaded, TenantHash, PrefixAffinity };

std::string to_string(RouterPolicy p);

class Router {
 public:
  /// What the router may see of a replica at routing time: a read-only
  /// cache handle to probe, the replica's outstanding prompt tokens, and
  /// whether it is draining (scale-down in progress: it finishes its
  /// in-flight work but must receive nothing new). Every policy routes
  /// around draining replicas; with none draining the behavior is
  /// bit-identical to the pre-elasticity router.
  struct ReplicaView {
    const cache::PrefixCache* cache = nullptr;  // nullptr = never probed
    std::size_t outstanding_prompt_tokens = 0;
    bool draining = false;
  };

  /// Throws std::invalid_argument when `n_replicas` is zero.
  Router(RouterPolicy policy, std::size_t n_replicas);

  RouterPolicy policy() const { return policy_; }
  std::size_t n_replicas() const { return n_; }

  /// Pick the replica for one request. `views.size()` must equal
  /// n_replicas(). Deterministic: ties break toward the lower replica
  /// index (PrefixAffinity breaks prefix-length ties by load first).
  /// Only RoundRobin carries state (the cursor); the rest are pure.
  std::size_t route(std::span<const cache::TokenId> prompt,
                    std::uint32_t tenant,
                    const std::vector<ReplicaView>& views);

 private:
  RouterPolicy policy_;
  std::size_t n_;
  std::size_t rr_next_ = 0;
};

}  // namespace llmq::serve
