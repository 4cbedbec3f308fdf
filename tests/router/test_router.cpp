// Router unit tests plus the replicated-serving properties:
//   * the n_replicas == 1 replicated run is equivalent — emitted ordering,
//     PHC, hit rate, and timings — to the single-engine run_online;
//   * multi-replica runs serve every arrival exactly once across replicas;
//   * PrefixAffinity beats RoundRobin on aggregate hit rate when a
//     shared-prefix stream is sharded over >= 2 replicas.

#include "serve/router.hpp"

#include <gtest/gtest.h>

#include <numeric>
#include <set>

#include "serve/online.hpp"
#include "util/rng.hpp"

namespace llmq::serve {
namespace {

using table::Schema;
using table::Table;

// ---- Router unit tests. ----

tokenizer::TokenSeq iota_seq(std::size_t n, cache::TokenId start = 0) {
  tokenizer::TokenSeq s(n);
  std::iota(s.begin(), s.end(), start);
  return s;
}

std::vector<Router::ReplicaView> plain_views(std::size_t n) {
  return std::vector<Router::ReplicaView>(n);
}

TEST(Router, PolicyNames) {
  EXPECT_EQ(to_string(RouterPolicy::RoundRobin), "RoundRobin");
  EXPECT_EQ(to_string(RouterPolicy::PrefixAffinity), "PrefixAffinity");
}

TEST(Router, RejectsZeroReplicasAndBadViews) {
  EXPECT_THROW(Router(RouterPolicy::RoundRobin, 0), std::invalid_argument);
  Router r(RouterPolicy::RoundRobin, 3);
  const auto p = iota_seq(4);
  EXPECT_THROW(r.route(p, 0, plain_views(2)), std::invalid_argument);
}

TEST(Router, RoundRobinCycles) {
  Router r(RouterPolicy::RoundRobin, 3);
  const auto p = iota_seq(4);
  const auto v = plain_views(3);
  for (std::size_t i = 0; i < 9; ++i) EXPECT_EQ(r.route(p, 0, v), i % 3);
}

TEST(Router, LeastLoadedPicksFewestOutstandingTokens) {
  Router r(RouterPolicy::LeastLoaded, 3);
  const auto p = iota_seq(4);
  auto v = plain_views(3);
  v[0].outstanding_prompt_tokens = 50;
  v[1].outstanding_prompt_tokens = 10;
  v[2].outstanding_prompt_tokens = 90;
  EXPECT_EQ(r.route(p, 0, v), 1u);
  v[1].outstanding_prompt_tokens = 50;  // three-way tie -> lowest index
  v[2].outstanding_prompt_tokens = 50;
  EXPECT_EQ(r.route(p, 0, v), 0u);
}

TEST(Router, TenantHashIsDeterministicAndSpreads) {
  Router r(RouterPolicy::TenantHash, 4);
  const auto p = iota_seq(4);
  const auto v = plain_views(4);
  std::set<std::size_t> hit;
  for (std::uint32_t t = 0; t < 64; ++t) {
    const std::size_t a = r.route(p, t, v);
    EXPECT_LT(a, 4u);
    EXPECT_EQ(a, r.route(p, t, v));  // same tenant, same replica
    hit.insert(a);
  }
  EXPECT_EQ(hit.size(), 4u);  // 64 tenants cover all 4 replicas
}

TEST(Router, PrefixAffinityFollowsTheLongestCachedPrefix) {
  cache::CacheConfig cc;
  cc.block_size = 4;
  cache::PrefixCache cold(cc), warm(cc);
  const auto prompt = iota_seq(16);
  auto lease = warm.lookup(prompt);
  warm.admit(prompt, lease);
  warm.release(lease);

  Router r(RouterPolicy::PrefixAffinity, 2);
  std::vector<Router::ReplicaView> v(2);
  v[0].cache = &cold;
  v[1].cache = &warm;
  // Affinity outranks load while the backlog gap stays within the spill
  // guard (2x the fleet minimum + the prompt).
  v[0].outstanding_prompt_tokens = 600;
  v[1].outstanding_prompt_tokens = 1000;
  EXPECT_EQ(r.route(prompt, 0, v), 1u);

  // No cached prefix anywhere: fall back to the tenant hash (stable, so a
  // cold burst stays together), not to least loaded (which would scatter
  // it across the fleet).
  const auto other = iota_seq(16, 500);
  Router th(RouterPolicy::TenantHash, 2);
  for (std::uint32_t tenant = 0; tenant < 8; ++tenant) {
    const std::size_t pick = r.route(other, tenant, v);
    EXPECT_EQ(pick, th.route(other, tenant, v));
    EXPECT_EQ(pick, r.route(other, tenant, v));  // stable
  }

  // Past the guard, affinity yields to balance: the warm replica is far
  // more loaded than the idle one, so the request spills despite the hit.
  v[0].outstanding_prompt_tokens = 0;
  v[1].outstanding_prompt_tokens = 5000;
  EXPECT_EQ(r.route(prompt, 0, v), 0u);

  // Routing must not have perturbed the probed caches.
  EXPECT_EQ(cold.stats().lookups, 0u);
  EXPECT_EQ(warm.stats().lookups, 1u);  // only the explicit lookup above
}

// ---- Replicated serving runs. ----

Table groupy_table(util::Rng& rng, std::size_t n, std::size_t m,
                   int alphabet) {
  std::vector<std::string> names;
  for (std::size_t c = 0; c < m; ++c) names.push_back("f" + std::to_string(c));
  Table t(Schema::of_names(names));
  for (std::size_t r = 0; r < n; ++r) {
    std::vector<std::string> row;
    for (std::size_t c = 0; c < m; ++c)
      row.push_back("value_" + std::string(1, static_cast<char>(
                                                  'a' + rng.next_below(
                                                            alphabet))));
    t.append_row(std::move(row));
  }
  return t;
}

OnlineConfig small_config() {
  OnlineConfig cfg;
  cfg.prompt.system_prompt = "You are a data analyst.";
  cfg.prompt.user_prompt = "Classify the row.";
  cfg.avg_output_tokens = 2.0;
  cfg.scheduler.ggr.measure = core::LengthMeasure::Unit;
  cfg.engine.kv_pool_blocks_override = 2048;  // ample, deterministic
  return cfg;
}

std::vector<Arrival> stream_over(std::size_t n, double rate,
                                 std::uint64_t seed,
                                 std::size_t n_tenants = 1) {
  WorkloadOptions w;
  w.arrival_rate = rate;
  w.seed = seed;
  w.n_tenants = n_tenants;
  return generate_arrivals(n, w);
}

TEST(ReplicatedServing, SingleReplicaEquivalentToSingleEngineRun) {
  // The ISSUE property: an n_replicas == 1 router run must be equivalent
  // to the single-engine run_online — same emitted ordering, PHC, and hit
  // rate — under every routing policy (with one replica every policy
  // routes identically). The clock-merge rule makes the equivalence
  // exact, so timings are compared bit-for-bit too.
  util::Rng rng(41);
  const Table t = groupy_table(rng, 60, 3, 3);
  const table::FdSet fds;
  OnlineConfig cfg = small_config();
  cfg.scheduler.policy = Policy::WindowedGgr;
  cfg.scheduler.window_rows = 16;
  cfg.scheduler.max_wait_seconds = 1.5;
  const auto arrivals = stream_over(60, 25.0, 11, 3);

  const auto single = run_online(t, fds, arrivals, cfg);
  for (const RouterPolicy policy :
       {RouterPolicy::RoundRobin, RouterPolicy::LeastLoaded,
        RouterPolicy::TenantHash, RouterPolicy::PrefixAffinity}) {
    OnlineConfig rcfg = cfg;
    rcfg.n_replicas = 1;
    rcfg.router = policy;
    const auto routed = run_online_replicated(t, fds, arrivals, rcfg);

    EXPECT_EQ(routed.emitted.row_order(), single.emitted.row_order());
    EXPECT_EQ(routed.emitted.field_orders(), single.emitted.field_orders());
    EXPECT_DOUBLE_EQ(routed.phc, single.phc);
    EXPECT_DOUBLE_EQ(routed.engine.prompt_cache_hit_rate(),
                     single.engine.prompt_cache_hit_rate());
    EXPECT_EQ(routed.engine.cached_prompt_tokens,
              single.engine.cached_prompt_tokens);
    EXPECT_DOUBLE_EQ(routed.engine.total_seconds, single.engine.total_seconds);
    EXPECT_DOUBLE_EQ(routed.latency.mean_ttft, single.latency.mean_ttft);
    EXPECT_DOUBLE_EQ(routed.latency.p99_e2e, single.latency.p99_e2e);
    EXPECT_DOUBLE_EQ(routed.load_imbalance, 1.0);
    ASSERT_EQ(routed.replicas.size(), 1u);
    EXPECT_EQ(routed.replicas[0].requests, single.requests.size());
    ASSERT_EQ(routed.requests.size(), single.requests.size());
    for (std::size_t i = 0; i < routed.requests.size(); ++i) {
      EXPECT_EQ(routed.requests[i].id, single.requests[i].id);
      EXPECT_DOUBLE_EQ(routed.requests[i].finish_time,
                       single.requests[i].finish_time);
    }
  }
}

TEST(ReplicatedServing, ServesEveryArrivalOnceAcrossReplicas) {
  util::Rng rng(42);
  const Table t = groupy_table(rng, 80, 3, 3);
  const table::FdSet fds;
  OnlineConfig cfg = small_config();
  cfg.scheduler.policy = Policy::WindowedGgr;
  cfg.scheduler.window_rows = 16;
  cfg.scheduler.max_wait_seconds = 1.0;
  cfg.n_replicas = 4;
  const auto arrivals = stream_over(80, 40.0, 12, 4);

  for (const RouterPolicy policy :
       {RouterPolicy::RoundRobin, RouterPolicy::LeastLoaded,
        RouterPolicy::TenantHash, RouterPolicy::PrefixAffinity}) {
    cfg.router = policy;
    const auto r = run_online(t, fds, arrivals, cfg);
    ASSERT_EQ(r.requests.size(), 80u) << to_string(policy);
    ASSERT_EQ(r.replicas.size(), 4u);

    std::set<std::uint64_t> ids;
    for (const auto& sr : r.requests) {
      EXPECT_TRUE(ids.insert(sr.id).second);
      EXPECT_LE(sr.arrival_time, sr.dispatch_time);
      EXPECT_LE(sr.dispatch_time, sr.admit_time);
      EXPECT_LE(sr.admit_time, sr.first_token_time);
      EXPECT_LE(sr.first_token_time, sr.finish_time);
    }
    std::size_t routed = 0;
    std::uint64_t prompt_tokens = 0;
    for (const auto& rep : r.replicas) {
      routed += rep.requests;
      prompt_tokens += rep.routed_prompt_tokens;
    }
    EXPECT_EQ(routed, 80u);
    // Per-request replica attribution reconciles with the per-replica
    // breakdown.
    std::vector<std::size_t> by_replica(4, 0);
    for (const auto& sr : r.requests) {
      ASSERT_LT(sr.replica, 4u);
      ++by_replica[sr.replica];
    }
    for (std::size_t i = 0; i < 4; ++i)
      EXPECT_EQ(by_replica[i], r.replicas[i].requests);
    EXPECT_EQ(prompt_tokens, r.engine.prompt_tokens);
    EXPECT_GE(r.load_imbalance, 1.0);
    EXPECT_LE(r.load_imbalance, 4.0 + 1e-9);
    EXPECT_TRUE(r.emitted.validate(80, t.num_cols()));
    // RoundRobin by construction spreads requests across all replicas.
    if (policy == RouterPolicy::RoundRobin) {
      for (const auto& rep : r.replicas) EXPECT_EQ(rep.requests, 20u);
    }
  }
}

/// Shared-prefix workload: few long repeated metadata columns + unique
/// text, multi-tenant — the shape where routing locality decides how many
/// replicas must re-prefill the same prefix.
Table shared_prefix_table(util::Rng& rng, std::size_t n_rows,
                          std::size_t n_products) {
  Table t{Schema::of_names({"product", "description", "review"})};
  std::vector<std::string> product, description;
  for (std::size_t p = 0; p < n_products; ++p) {
    product.push_back("product_" + std::to_string(p));
    std::string d;
    for (int k = 0; k < 12; ++k)
      d += "spec" + std::to_string(p) + "word" + std::to_string(k) + " ";
    description.push_back(d);
  }
  for (std::size_t r = 0; r < n_rows; ++r) {
    const std::size_t p = rng.next_below(n_products);
    std::string review;
    for (int k = 0; k < 10; ++k)
      review += "tok" + std::to_string(rng.next_u64() % 100000) + " ";
    t.append_row({product[p], description[p], std::move(review)});
  }
  return t;
}

TEST(ReplicatedServing, PrefixAffinityBeatsRoundRobinHitRate) {
  util::Rng rng(43);
  const Table t = shared_prefix_table(rng, 120, 6);
  table::FdSet fds;
  fds.add_group({"product", "description"});

  OnlineConfig cfg = small_config();
  cfg.scheduler.policy = Policy::TenantGgr;
  cfg.scheduler.window_rows = 40;
  cfg.scheduler.max_wait_seconds = 2.0;
  cfg.n_replicas = 2;

  WorkloadOptions w;
  w.arrival_rate = 40.0;
  w.n_tenants = 4;
  w.tenant_skew = 1.0;
  w.n_requests = 240;  // repeat traffic: every row visited ~twice
  w.seed = 13;
  const auto arrivals = generate_arrivals(t.num_rows(), w);

  cfg.router = RouterPolicy::RoundRobin;
  const auto rr = run_online(t, fds, arrivals, cfg);
  cfg.router = RouterPolicy::PrefixAffinity;
  const auto aff = run_online(t, fds, arrivals, cfg);

  ASSERT_EQ(rr.requests.size(), aff.requests.size());
  EXPECT_GT(aff.engine.prompt_cache_hit_rate(),
            rr.engine.prompt_cache_hit_rate());
}

TEST(ReplicatedServing, ZeroReplicasRejectedEmptyStreamOk) {
  util::Rng rng(44);
  const Table t = groupy_table(rng, 5, 2, 2);
  const table::FdSet fds;
  OnlineConfig cfg = small_config();
  cfg.n_replicas = 0;
  EXPECT_THROW(run_online(t, fds, {}, cfg), std::invalid_argument);
  EXPECT_THROW(run_online_replicated(t, fds, {}, cfg), std::invalid_argument);

  cfg.n_replicas = 3;
  const auto r = run_online(t, fds, {}, cfg);
  EXPECT_TRUE(r.requests.empty());
  EXPECT_EQ(r.replicas.size(), 3u);
  EXPECT_DOUBLE_EQ(r.load_imbalance, 1.0);
}

}  // namespace
}  // namespace llmq::serve
