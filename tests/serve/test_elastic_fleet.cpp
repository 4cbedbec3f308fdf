// Elastic-fleet properties: prefix migration is exactly-once, and the
// watermark-driven scaling loop is deterministic and driver-agnostic.
//
// Migration semantics under test (cache-pair level, 20 seeds):
//  - no double-counted hits: begin_migration / admit_migrated /
//    end_migration leave both caches' lookup and hit counters untouched —
//    a migrated prefix is warm capacity, not a fake cache hit;
//  - deferred donor eviction: the donor's batch leases pin every migrated
//    prefix until end_migration, so the donor keeps serving the bytes the
//    recipient has not received yet;
//  - mid-migration drain loses nothing: even if the donor is drained and
//    fully evicted after the transfer lands, every migrated prefix is
//    servable from the recipient.
//
// Fleet level: elasticity-enabled runs replay bit-identically, the
// threaded driver matches the virtual-clock replicated driver event for
// event, and ReplicaSpawn actually fires under overload.

#include <gtest/gtest.h>

#include <numeric>
#include <vector>

#include "cache/prefix_cache.hpp"
#include "obs/audit.hpp"
#include "obs/trace.hpp"
#include "serve/online.hpp"
#include "serve/threaded_fleet.hpp"
#include "util/rng.hpp"

namespace llmq::serve {
namespace {

using cache::CacheConfig;
using cache::CacheLease;
using cache::CacheStats;
using cache::PrefixCache;

tokenizer::TokenSeq random_prompt(util::Rng& rng, std::size_t max_len,
                                  std::size_t vocab) {
  tokenizer::TokenSeq s(1 + rng.next_below(max_len));
  for (auto& t : s)
    t = static_cast<tokenizer::TokenId>(rng.next_below(vocab));
  return s;
}

class MigrationExactlyOnce : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(MigrationExactlyOnce, DonorRecipientLedgersReconcile) {
  const std::uint64_t seed = GetParam();
  util::Rng rng(seed * 7919 + 3);
  PrefixCache donor(
      CacheConfig{.block_size = 4, .capacity_blocks = 32, .tiers = 2});
  PrefixCache recipient(
      CacheConfig{.block_size = 4, .capacity_blocks = 32, .tiers = 2});

  // Warm the donor with a shared-prefix-heavy stream.
  std::vector<tokenizer::TokenSeq> prompts;
  for (int i = 0; i < 10; ++i)
    prompts.push_back(random_prompt(rng, 24, 3));
  for (int step = 0; step < 60; ++step) {
    const auto& p = prompts[rng.next_below(prompts.size())];
    auto lease = donor.lookup(p);
    donor.admit(p, lease);
    donor.release(lease);
  }
  const CacheStats donor_before = donor.stats();
  const std::size_t donor_resident = donor.resident_blocks();

  const std::size_t budget = 1 + rng.next_below(16);
  auto batch = donor.begin_migration(budget);
  EXPECT_LE(batch.blocks, donor_resident);
  EXPECT_EQ(batch.prefixes.size(), batch.leases.size());

  // Deferred donor eviction: while the transfer is in flight, pressure
  // cannot destroy or demote the pinned prefixes out from under it.
  donor.evict(donor.resident_blocks());
  for (const auto& p : batch.prefixes)
    EXPECT_EQ(donor.peek(p), p.size())
        << "donor dropped an in-flight migration prefix (seed " << seed
        << ")";

  // Land the transfer: recipient admits every prefix, exactly once each.
  std::size_t landed = 0;
  for (const auto& p : batch.prefixes) landed += recipient.admit_migrated(p);
  EXPECT_EQ(landed, recipient.resident_blocks());
  // Prefix-sharing means path blocks can overlap across batch entries;
  // the recipient holds each block once, never more than the batch total.
  EXPECT_LE(landed, batch.blocks);
  // Exactly-once: replaying the same transfer inserts nothing new.
  for (const auto& p : batch.prefixes)
    EXPECT_EQ(recipient.admit_migrated(p), 0u) << "seed " << seed;
  EXPECT_EQ(recipient.resident_blocks(), landed);

  // No double-counted hits, either side: migration is not a lookup.
  EXPECT_EQ(recipient.stats().lookups, 0u);
  EXPECT_EQ(recipient.stats().hit_tokens, 0u);
  EXPECT_EQ(recipient.stats().lookup_tokens, 0u);
  EXPECT_EQ(donor.stats().lookups, donor_before.lookups);
  EXPECT_EQ(donor.stats().hit_tokens, donor_before.hit_tokens);
  EXPECT_EQ(donor.stats().lookup_tokens, donor_before.lookup_tokens);

  // Mid-migration drain loses nothing: once the batch has landed, the
  // donor may be drained and flushed, yet every migrated prefix still
  // serves — from the recipient.
  donor.end_migration(batch);
  donor.evict(donor.resident_blocks());
  for (const auto& p : batch.prefixes) {
    auto lease = recipient.lookup(p);
    EXPECT_EQ(lease.cached_tokens, p.size()) << "seed " << seed;
    recipient.release(lease);
  }
  EXPECT_EQ(donor.check_invariants(), "");
  EXPECT_EQ(recipient.check_invariants(), "");
}

INSTANTIATE_TEST_SUITE_P(Seeds, MigrationExactlyOnce,
                         ::testing::Range(std::uint64_t{1},
                                          std::uint64_t{21}));

// ---- Fleet-level elasticity. ----

table::Table tiny_table(std::size_t n) {
  table::Table t(table::Schema::of_names({"category", "region", "status"}));
  for (std::size_t r = 0; r < n; ++r)
    t.append_row({"cat_" + std::to_string(r % 3),
                  "region_" + std::to_string(r % 4),
                  r % 2 ? "active" : "archived"});
  return t;
}

OnlineConfig elastic_config() {
  OnlineConfig cfg;
  cfg.prompt.system_prompt = "You are a serving assistant.";
  cfg.prompt.user_prompt = "Classify the row.";
  cfg.avg_output_tokens = 6.0;
  cfg.class_output_multiplier = {0.5, 1.0, 4.0};
  cfg.ttft_slo_seconds = 5.0;
  cfg.scheduler.policy = Policy::WindowedGgr;
  cfg.scheduler.window_rows = 16;
  cfg.scheduler.max_wait_seconds = 1.0;
  cfg.scheduler.priority_order = true;
  cfg.scheduler.aging_seconds = 4.0;
  cfg.scheduler.ggr.measure = core::LengthMeasure::Unit;
  cfg.engine.max_batch_size = 4;
  cfg.engine.kv_pool_blocks_override = 96;
  cfg.engine.priority_aging_seconds = 4.0;
  cfg.n_replicas = 1;
  cfg.router = RouterPolicy::PrefixAffinity;
  cfg.elasticity.enabled = true;
  cfg.elasticity.min_replicas = 1;
  cfg.elasticity.max_replicas = 3;
  cfg.elasticity.high_watermark_tokens = 200;
  cfg.elasticity.low_watermark_tokens = 40;
  cfg.elasticity.migrate_max_blocks = 8;
  cfg.elasticity.cooldown_seconds = 0.25;
  return cfg;
}

std::vector<Arrival> burst_arrivals(std::size_t n_rows) {
  WorkloadOptions w;
  w.arrival_rate = 60.0;  // burst: drives outstanding load over watermark
  w.n_tenants = 3;
  w.tenant_classes = {llm::PriorityClass::Batch,
                      llm::PriorityClass::Interactive,
                      llm::PriorityClass::Standard};
  w.n_requests = 2 * n_rows;
  w.seed = 4242;
  return generate_arrivals(n_rows, w);
}

TEST(ElasticFleet, ScalesUpUnderBurstAndAuditsClean) {
  const std::size_t n_rows = 60;
  const table::Table t = tiny_table(n_rows);
  const table::FdSet fds;
  OnlineConfig cfg = elastic_config();
  obs::TraceLog log;
  cfg.trace.sink = &log;

  const OnlineRunResult run = run_online(t, fds, burst_arrivals(n_rows), cfg);
  EXPECT_EQ(run.replicas.size(), 3u);  // elasticity ceiling sizing

  const obs::AuditResult audit = obs::audit_trace(log);
  EXPECT_TRUE(audit.ok()) << audit.first_violation();
  EXPECT_GT(audit.replica_spawns, 0u)
      << "the burst never crossed the high watermark — the fixture no "
         "longer exercises scale-up";
  // Warm spawns announce their migrated-prefix budget.
  EXPECT_GT(audit.prefix_migrations, 0u);
  EXPECT_GT(audit.migrated_blocks, 0u);
  // Work must actually land on a scaled-up replica.
  std::size_t active_with_work = 0;
  for (const auto& r : run.replicas) active_with_work += r.requests > 0;
  EXPECT_GT(active_with_work, 1u);
}

TEST(ElasticFleet, ElasticReplayIsBitIdentical) {
  const std::size_t n_rows = 60;
  const table::Table t = tiny_table(n_rows);
  const table::FdSet fds;
  const auto arrivals = burst_arrivals(n_rows);
  const OnlineConfig cfg = elastic_config();

  const OnlineRunResult a = run_online(t, fds, arrivals, cfg);
  const OnlineRunResult b = run_online(t, fds, arrivals, cfg);
  ASSERT_EQ(a.requests.size(), b.requests.size());
  for (std::size_t i = 0; i < a.requests.size(); ++i) {
    EXPECT_EQ(a.requests[i].id, b.requests[i].id);
    EXPECT_EQ(a.requests[i].replica, b.requests[i].replica);
    EXPECT_EQ(a.requests[i].finish_time, b.requests[i].finish_time);
    EXPECT_EQ(a.requests[i].cached_tokens, b.requests[i].cached_tokens);
  }
  EXPECT_EQ(a.latency.p99_ttft, b.latency.p99_ttft);
  EXPECT_EQ(a.engine.cache.hit_tokens, b.engine.cache.hit_tokens);
  EXPECT_EQ(a.load_imbalance, b.load_imbalance);
}

/// 1 -> 2 replicas over a 2-tier cache whose host tier equals the GPU
/// pool, fed burst -> lull -> burst by tenant hash: replica 1 spawns,
/// drains and parks warm in the lull, and re-spawns in the second burst
/// with a warm migration whose landing moves blocks between the
/// recipient's tiers — cache events emitted at a dispatch, outside every
/// replica step.
OnlineConfig warm_respawn_config() {
  OnlineConfig cfg = elastic_config();
  cfg.scheduler.policy = Policy::Fifo;
  cfg.scheduler.window_rows = 4;
  cfg.scheduler.max_wait_seconds = 0.05;
  cfg.router = RouterPolicy::TenantHash;
  cfg.engine.kv_pool_blocks_override = 80;
  cfg.engine.cache_tiers = 2;
  cfg.engine.host_capacity_blocks = 80;
  cfg.elasticity.max_replicas = 2;
  cfg.elasticity.high_watermark_tokens = 150;
  cfg.elasticity.low_watermark_tokens = 60;
  cfg.elasticity.migrate_max_blocks = 24;
  cfg.elasticity.cooldown_seconds = 0.1;
  return cfg;
}

/// tiny_table behind a leading per-row sku column: every prompt carries
/// row-specific full blocks, enough to overflow an 80-block GPU tier.
table::Table sku_table(std::size_t n) {
  table::Table t(
      table::Schema::of_names({"sku", "category", "region", "status"}));
  for (std::size_t r = 0; r < n; ++r)
    t.append_row({"sku_" + std::to_string(r), "cat_" + std::to_string(r % 3),
                  "region_" + std::to_string(r % 4),
                  r % 2 ? "active" : "archived"});
  return t;
}

/// Bursts of 120 arrivals 5 ms apart around a lull of 12 arrivals 1.5 s
/// apart, over 6 tenants.
std::vector<Arrival> burst_lull_burst_arrivals(std::size_t n_rows) {
  std::vector<Arrival> out;
  double t = 0.0;
  const auto add = [&](std::size_t count, double gap) {
    for (std::size_t i = 0; i < count; ++i, t += gap) {
      Arrival a;
      a.id = out.size();
      a.time = t;
      a.row = out.size() % n_rows;
      a.tenant = static_cast<std::uint32_t>(out.size() % 6);
      out.push_back(a);
    }
  };
  add(120, 0.005);
  add(12, 1.5);
  add(120, 0.005);
  return out;
}

/// Does some PrefixMigrate directly follow a tier or eviction event on its
/// recipient's track — i.e. did a landing move blocks on the recipient?
bool landing_moves_recipient_blocks(const obs::TraceLog& log) {
  const auto& ev = log.events();
  for (std::size_t i = 1; i < ev.size(); ++i) {
    if (ev[i].kind != obs::EventKind::PrefixMigrate) continue;
    const obs::TraceEvent& prev = ev[i - 1];
    if (prev.replica == ev[i].c &&
        (prev.kind == obs::EventKind::TierPromote ||
         prev.kind == obs::EventKind::TierDemote ||
         prev.kind == obs::EventKind::CacheEvict))
      return true;
  }
  return false;
}

TEST(ElasticFleet, ThreadedDriverMatchesVirtualClockWithElasticity) {
  const table::FdSet fds;
  struct Fixture {
    const char* name;
    table::Table table;
    OnlineConfig cfg;
    std::vector<Arrival> arrivals;
    bool landing_moves_blocks;  // the case the fixture must reach
  };
  const std::vector<Fixture> fixtures = {
      {"burst", tiny_table(60), elastic_config(), burst_arrivals(60), false},
      {"warm_respawn", sku_table(120), warm_respawn_config(),
       burst_lull_burst_arrivals(120), true},
  };
  for (const Fixture& fx : fixtures) {
    SCOPED_TRACE(fx.name);
    obs::TraceLog log_v, log_t;
    OnlineConfig cfg_v = fx.cfg, cfg_t = fx.cfg;
    cfg_v.trace.sink = &log_v;
    cfg_t.trace.sink = &log_t;
    const OnlineRunResult v =
        run_online_replicated(fx.table, fds, fx.arrivals, cfg_v);
    const OnlineRunResult th =
        run_online_threaded(fx.table, fds, fx.arrivals, cfg_t);
    if (fx.landing_moves_blocks) {
      ASSERT_TRUE(landing_moves_recipient_blocks(log_v))
          << "no migration landing moved recipient blocks — the fixture "
             "no longer reaches the warm re-spawn case";
    }

    ASSERT_EQ(v.requests.size(), th.requests.size());
    for (std::size_t i = 0; i < v.requests.size(); ++i) {
      EXPECT_EQ(v.requests[i].id, th.requests[i].id);
      EXPECT_EQ(v.requests[i].replica, th.requests[i].replica);
      EXPECT_EQ(v.requests[i].first_token_time,
                th.requests[i].first_token_time);
      EXPECT_EQ(v.requests[i].finish_time, th.requests[i].finish_time);
    }
    EXPECT_EQ(v.latency.p99_ttft, th.latency.p99_ttft);
    EXPECT_EQ(v.engine.cache.hit_tokens, th.engine.cache.hit_tokens);

    // Event-for-event: the scaling decisions themselves must line up.
    ASSERT_EQ(log_v.size(), log_t.size());
    const auto& ev = log_v.events();
    const auto& et = log_t.events();
    for (std::size_t i = 0; i < ev.size(); ++i) {
      ASSERT_EQ(ev[i].kind, et[i].kind) << "event " << i;
      ASSERT_EQ(ev[i].time, et[i].time) << "event " << i;
      ASSERT_EQ(ev[i].replica, et[i].replica) << "event " << i;
      ASSERT_EQ(ev[i].a, et[i].a) << "event " << i;
      ASSERT_EQ(ev[i].b, et[i].b) << "event " << i;
      ASSERT_EQ(ev[i].c, et[i].c) << "event " << i;
    }
  }
}

TEST(ElasticFleet, DisabledElasticityLeavesSingleReplicaPathUntouched) {
  // elasticity.enabled routes n_replicas == 1 through the replicated
  // driver; with it off the dedicated single path must be taken and the
  // result must carry exactly one replica slice.
  const std::size_t n_rows = 40;
  const table::Table t = tiny_table(n_rows);
  const table::FdSet fds;
  OnlineConfig cfg = elastic_config();
  cfg.elasticity = ElasticityConfig{};  // off
  const OnlineRunResult run = run_online(t, fds, burst_arrivals(n_rows), cfg);
  EXPECT_EQ(run.replicas.size(), 1u);
}

}  // namespace
}  // namespace llmq::serve
