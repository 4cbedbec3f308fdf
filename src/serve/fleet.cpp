#include "serve/fleet.hpp"

#include <algorithm>
#include <stdexcept>

#include "llm/cost_model.hpp"

namespace llmq::serve {

void FleetConfig::scale_kv_pool(double fraction) {
  engine.kv_pool_blocks_override =
      llm::scaled_kv_pool_blocks(model, gpu, engine.block_size, fraction);
}

llm::EngineMetrics aggregate_replica_engines(
    const std::vector<ReplicaMetrics>& replicas) {
  llm::EngineMetrics agg;
  for (const ReplicaMetrics& r : replicas) {
    const llm::EngineMetrics& m = r.engine;
    agg.total_seconds = std::max(agg.total_seconds, m.total_seconds);
    agg.prefill_seconds += m.prefill_seconds;
    agg.decode_seconds += m.decode_seconds;
    agg.prompt_tokens += m.prompt_tokens;
    agg.cached_prompt_tokens += m.cached_prompt_tokens;
    agg.computed_prompt_tokens += m.computed_prompt_tokens;
    agg.output_tokens += m.output_tokens;
    agg.decode_steps += m.decode_steps;
    agg.sum_batch_size += m.sum_batch_size;
    agg.peak_batch_size = std::max(agg.peak_batch_size, m.peak_batch_size);
    agg.preemptions += m.preemptions;
    agg.recompute_prefill_tokens += m.recompute_prefill_tokens;
    agg.recompute_prefill_seconds += m.recompute_prefill_seconds;
    agg.prefill_chunks += m.prefill_chunks;
    agg.chunked_prefill_tokens += m.chunked_prefill_tokens;
    agg.max_decode_stall_seconds =
        std::max(agg.max_decode_stall_seconds, m.max_decode_stall_seconds);
    agg.promoted_host_blocks += m.promoted_host_blocks;
    agg.promoted_disk_blocks += m.promoted_disk_blocks;
    agg.promote_seconds += m.promote_seconds;
    agg.cache += m.cache;
  }
  return agg;
}

ReplicaFleet::ReplicaFleet(const FleetConfig& config)
    : router_(config.router,
              config.elasticity.enabled
                  ? config.elasticity.ceiling(config.n_replicas)
                  : (config.n_replicas ? config.n_replicas : 1)),
      elastic_(config.elasticity),
      block_size_(config.engine.block_size) {
  if (config.n_replicas == 0)
    throw std::invalid_argument("ReplicaFleet: n_replicas must be positive");
  const std::size_t total = elastic_.enabled
                                ? elastic_.ceiling(config.n_replicas)
                                : config.n_replicas;
  replicas_.reserve(total);
  for (std::size_t r = 0; r < total; ++r)
    replicas_.push_back(std::make_unique<Replica>(config));
  counters_.resize(total);
  active_.assign(total, 0);
  draining_.assign(total, 0);
  for (std::size_t r = 0; r < config.n_replicas; ++r) active_[r] = 1;
}

std::size_t ReplicaFleet::active_replicas() const {
  std::size_t n = 0;
  for (char a : active_) n += a ? 1u : 0u;
  return n;
}

void ReplicaFleet::complete_migrations(double now) {
  for (std::size_t i = 0; i < pending_.size();) {
    PendingMigration& m = pending_[i];
    if (m.land_time > now) {
      ++i;
      continue;
    }
    // The transfer landed: the recipient materializes the prefixes (no
    // lookup/hit stats — migrated blocks must not count as prefix hits),
    // then the donor's transfer pins come off so its LRU may finally
    // evict them. Event time is the dispatch that OBSERVES the landing,
    // not land_time itself: other global-track events (window plans)
    // may have been emitted between land_time and this dispatch, and
    // the trace contract keeps every track's clock monotone.
    cache::PrefixCache& dst = replicas_[m.recipient]->cache;
    for (const tokenizer::TokenSeq& p : m.batch.prefixes) dst.admit_migrated(p);
    if (trace_)
      trace_->emit({obs::EventKind::PrefixMigrate, 0, obs::kGlobalTrack,
                    now, 0, m.batch.blocks, m.donor, m.recipient});
    replicas_[m.donor]->cache.end_migration(m.batch);
    pending_.erase(pending_.begin() + static_cast<std::ptrdiff_t>(i));
  }
}

void ReplicaFleet::maybe_scale(double now) {
  complete_migrations(now);
  // A draining replica parks once its in-flight work AND any transfer it
  // is party to have finished; its cache stays warm for re-activation.
  for (std::size_t r = 0; r < replicas_.size(); ++r) {
    if (!draining_[r] || replicas_[r]->session.has_work()) continue;
    bool migrating = false;
    for (const PendingMigration& m : pending_)
      migrating |= (m.donor == r || m.recipient == r);
    if (migrating) continue;
    draining_[r] = 0;
    active_[r] = 0;
    if (trace_)
      trace_->emit({obs::EventKind::ReplicaDrain, 0, obs::kGlobalTrack, now, 0,
                    active_replicas(), 0, 0});
  }
  if (now - last_scale_ < elastic_.cooldown_seconds) return;
  // Serving load: mean outstanding prompt tokens per active non-draining
  // replica (a draining replica finishes its backlog but takes nothing
  // new, so it neither serves nor counts).
  std::size_t serving = 0, outstanding = 0;
  for (std::size_t r = 0; r < replicas_.size(); ++r) {
    if (!active_[r] || draining_[r]) continue;
    ++serving;
    outstanding += replicas_[r]->session.outstanding_prompt_tokens();
  }
  if (serving == 0) return;
  const double mean =
      static_cast<double>(outstanding) / static_cast<double>(serving);
  if (elastic_.high_watermark_tokens > 0 &&
      mean > static_cast<double>(elastic_.high_watermark_tokens)) {
    std::size_t spawn = replicas_.size();
    for (std::size_t r = 0; r < replicas_.size(); ++r)
      if (!active_[r]) {
        spawn = r;
        break;
      }
    if (spawn == replicas_.size()) return;  // at the ceiling
    active_[spawn] = 1;
    last_scale_ = now;
    bool warmed = false;
    if (elastic_.migrate_max_blocks > 0) {
      // Warm the spawn from the most-loaded serving peer (tie: lowest
      // index). Until the transfer lands the spawn serves cold.
      std::size_t donor = replicas_.size(), donor_out = 0;
      for (std::size_t r = 0; r < replicas_.size(); ++r) {
        if (!active_[r] || draining_[r] || r == spawn) continue;
        const std::size_t o =
            replicas_[r]->session.outstanding_prompt_tokens();
        if (donor == replicas_.size() || o > donor_out) {
          donor = r;
          donor_out = o;
        }
      }
      if (donor < replicas_.size()) {
        cache::PrefixCache::MigrationBatch batch =
            replicas_[donor]->cache.begin_migration(
                elastic_.migrate_max_blocks);
        if (batch.blocks > 0) {
          // Inter-replica KV streaming priced like a host-tier transfer.
          const double land =
              now + replicas_[donor]->engine.cost_model().promote_seconds(
                        batch.blocks, 0, block_size_);
          warmed = true;
          pending_.push_back({donor, spawn, std::move(batch), land});
        } else {
          replicas_[donor]->cache.end_migration(batch);
        }
      }
    }
    if (trace_)
      trace_->emit({obs::EventKind::ReplicaSpawn, 0, obs::kGlobalTrack, now, 0,
                    active_replicas(), warmed ? 1u : 0u, 0});
    return;
  }
  if (elastic_.low_watermark_tokens > 0 && serving > elastic_.min_replicas &&
      mean < static_cast<double>(elastic_.low_watermark_tokens)) {
    // Drain the highest-index serving replica; ReplicaDrain is emitted
    // when it actually parks, above.
    for (std::size_t r = replicas_.size(); r-- > 0;) {
      if (active_[r] && !draining_[r]) {
        draining_[r] = 1;
        last_scale_ = now;
        break;
      }
    }
  }
}

std::size_t ReplicaFleet::dispatch(llm::Request req, std::uint32_t tenant,
                                   double now) {
  if (elastic_.enabled) maybe_scale(now);
  const std::size_t n_rep = replicas_.size();
  views_.resize(n_rep);  // member buffer: dispatch is the per-request hot path
  for (std::size_t r = 0; r < n_rep; ++r) {
    views_[r].cache = &replicas_[r]->session.cache();
    views_[r].outstanding_prompt_tokens =
        replicas_[r]->session.outstanding_prompt_tokens();
    views_[r].draining = !active_[r] || draining_[r] != 0;
  }
  const std::size_t target = router_.route(req.prompt, tenant, views_);
  Replica& rep = *replicas_[target];
  if (trace_) {
    // Re-probe the winner with the const, side-effect-free peek() —
    // traced runs must stay bit-identical to untraced ones.
    trace_->emit({obs::EventKind::RouteDecision,
                  static_cast<std::uint8_t>(req.priority), obs::kGlobalTrack,
                  now, req.id, target,
                  views_[target].cache->peek(req.prompt),
                  views_[target].outstanding_prompt_tokens});
  }
  // An idle replica has been parked at its last activity; bring it to the
  // dispatch instant so admission cannot happen in the past.
  if (!rep.session.has_work()) rep.session.advance_to(now);

  counters_[target].routed_prompt_tokens += req.prompt.size();
  ++counters_[target].requests;
  rep.session.submit(std::move(req));

  // Outstanding-load imbalance over the active set, sampled after every
  // routing decision (every replica is active in a fixed-size fleet).
  std::size_t max_out = 0, sum_out = 0, n_act = 0;
  for (std::size_t r = 0; r < n_rep; ++r) {
    if (!active_[r]) continue;
    const std::size_t o = replicas_[r]->session.outstanding_prompt_tokens();
    max_out = std::max(max_out, o);
    sum_out += o;
    ++n_act;
  }
  const double mean_out =
      static_cast<double>(sum_out) / static_cast<double>(n_act);
  imbalance_sum_ += static_cast<double>(max_out) / mean_out;
  ++imbalance_samples_;
  return target;
}

bool ReplicaFleet::any_work() const {
  for (const auto& r : replicas_)
    if (r->session.has_work()) return true;
  return false;
}

std::size_t ReplicaFleet::earliest_busy() const {
  const std::size_t n_rep = replicas_.size();
  std::size_t best = n_rep;
  for (std::size_t r = 0; r < n_rep; ++r) {
    if (!replicas_[r]->session.has_work()) continue;
    if (best == n_rep ||
        replicas_[r]->session.now() < replicas_[best]->session.now())
      best = r;
  }
  return best;
}

double ReplicaFleet::frontier(double now) const {
  const std::size_t busy = earliest_busy();
  if (busy < replicas_.size())
    return std::max(now, replicas_[busy]->session.now());
  for (const auto& r : replicas_) now = std::max(now, r->session.now());
  return now;
}

ReplicaFleet::StepResult ReplicaFleet::step() {
  StepResult out;
  out.replica = earliest_busy();
  llm::EngineSession::StepEvents ev = replicas_[out.replica]->session.step();
  out.completed = std::move(ev.completed);
  out.preempted = ev.preempted;
  return out;
}

std::vector<ReplicaMetrics> ReplicaFleet::replica_metrics() const {
  std::vector<ReplicaMetrics> out = counters_;
  for (std::size_t r = 0; r < replicas_.size(); ++r)
    out[r].engine = replicas_[r]->session.metrics();
  return out;
}

double ReplicaFleet::load_imbalance() const {
  return imbalance_samples_
             ? imbalance_sum_ / static_cast<double>(imbalance_samples_)
             : 1.0;
}

void ReplicaFleet::set_trace(obs::TraceSink* sink) {
  trace_ = sink;
  for (std::size_t r = 0; r < replicas_.size(); ++r)
    replicas_[r]->session.set_trace(sink, static_cast<std::uint32_t>(r));
}

void ReplicaFleet::sample_gauges(obs::TimeSeries& ts, double now) const {
  for (std::size_t r = 0; r < replicas_.size(); ++r)
    ts.append(now, static_cast<std::uint32_t>(r),
              replicas_[r]->session.gauges());
}

}  // namespace llmq::serve
