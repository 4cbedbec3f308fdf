#include "llm/engine_session.hpp"

#include <algorithm>
#include <span>
#include <stdexcept>

namespace llmq::llm {

namespace {
std::size_t ceil_div(std::size_t a, std::size_t b) { return (a + b - 1) / b; }
}  // namespace

EngineSession::EngineSession(const ServingEngine& engine,
                             cache::PrefixCache& cache)
    : engine_(engine), cache_(cache), stats_at_start_(cache.stats()) {
  if (engine_.kv_pool_blocks() == 0)
    throw std::runtime_error(
        "ServingEngine: model does not fit on the configured GPU");
}

void EngineSession::submit(Request req) {
  outstanding_prompt_tokens_ += req.prompt.size();
  trace(obs::EventKind::Enqueue, req.id, req.prompt.size(),
        req.output_tokens, 0, req.priority);
  Pending p;
  p.req = std::move(req);
  p.seq = next_seq_++;
  p.submit_time = now_;
  enqueue_pending(std::move(p));
}

PriorityClass EngineSession::effective_class(PriorityClass base,
                                             double submit_time) const {
  return aged_class(base, now_ - submit_time,
                    engine_.config().priority_aging_seconds);
}

void EngineSession::enqueue_pending(Pending p) {
  auto& q = pending_[static_cast<std::size_t>(p.req.priority)];
  // Fresh submissions carry the globally newest seq — O(1) append. Only
  // preemption re-queues (old seq, FIFO position reclaimed) pay the
  // sorted insert, and those are bounded by preemption traffic, not by
  // backlog depth.
  if (q.empty() || q.back().seq < p.seq) {
    q.push_back(std::move(p));
    return;
  }
  const auto it = std::upper_bound(
      q.begin(), q.end(), p.seq,
      [](std::uint64_t seq, const Pending& x) { return seq < x.seq; });
  q.insert(it, std::move(p));
}

std::size_t EngineSession::pick_queue() const {
  // Strict priority, FIFO within a class: minimum (effective class, seq).
  // Each base-class queue is seq-sorted, and seq order is submit-time
  // order, so aging promotes the front at least as far as anything behind
  // it — the front holds its queue's minimum (effective class, seq) and
  // comparing the <= kNumPriorityClasses fronts finds the global minimum.
  // The tie-break must be seq, not queue position: preempted victims
  // re-queue with their ORIGINAL seq (sorted insert), so the oldest
  // victim keeps its FIFO slot instead of being demoted behind every
  // younger same-class request each cycle. With uniform priorities and no
  // preemption this picks the single queue's front — plain FIFO, exactly
  // the pre-priority behavior.
  std::size_t best = kNumPriorityClasses;
  PriorityClass best_cls = PriorityClass::Batch;
  for (std::size_t b = 0; b < kNumPriorityClasses; ++b) {
    const auto& q = pending_[b];
    if (q.empty()) continue;
    const PriorityClass cls =
        effective_class(q.front().req.priority, q.front().submit_time);
    if (best == kNumPriorityClasses || cls < best_cls ||
        (cls == best_cls && q.front().seq < pending_[best].front().seq)) {
      best = b;
      best_cls = cls;
    }
  }
  return best;
}

EngineSession::PickedCandidate EngineSession::pick_candidate() const {
  const std::size_t qi = pick_queue();
  if (qi == kNumPriorityClasses || !engine_.config().spjf) return {qi, 0};
  // SPJF: minimum (predicted, seq) over the equal-effective-class
  // prefixes. With every prediction 0 this is min seq over the same
  // candidate set — exactly the FIFO pick, so a disabled predictor is
  // bit-identical to spjf == false.
  const PriorityClass best_cls = effective_class(
      pending_[qi].front().req.priority, pending_[qi].front().submit_time);
  PickedCandidate best{qi, 0};
  std::size_t best_pred = pending_[qi].front().req.predicted_output_tokens;
  std::uint64_t best_seq = pending_[qi].front().seq;
  for (std::size_t b = 0; b < kNumPriorityClasses; ++b) {
    const auto& q = pending_[b];
    if (q.empty() ||
        effective_class(q.front().req.priority, q.front().submit_time) !=
            best_cls)
      continue;  // this queue's best candidate is in a worse class
    for (std::size_t i = 0; i < q.size(); ++i) {
      if (effective_class(q[i].req.priority, q[i].submit_time) != best_cls)
        break;  // seq-sorted queue: effective class only worsens deeper
      const std::size_t pred = q[i].req.predicted_output_tokens;
      if (pred < best_pred || (pred == best_pred && q[i].seq < best_seq)) {
        best = {b, i};
        best_pred = pred;
        best_seq = q[i].seq;
      }
    }
  }
  return best;
}

EngineSession::Pending EngineSession::preempt_at(std::size_t idx,
                                                 bool automatic) {
  Running& r = running_[idx];
  trace(obs::EventKind::Preempt, r.req.id, r.generated, r.max_prefilled,
        automatic ? 1 : 0, r.req.priority);
  // Release the victim's KV: unpin its cached prefix path (the shared
  // blocks stay resident until LRU eviction needs them — that residue is
  // what makes resume cheap) and free its private blocks (prompt tail +
  // generated tokens — the "uncached suffix" recompute must rebuild). A
  // victim caught mid-prefill also returns the headroom its remaining
  // chunks had reserved; chunk progress already admitted into the cache
  // survives (block-aligned) and its next resume_lookup re-finds it.
  cache_.release(r.lease);
  private_in_use_ -= r.private_blocks;
  reserved_shared_ -= r.shared_reserved;
  ++metrics_.preemptions;

  Pending p;
  p.req = std::move(r.req);
  p.seq = r.seq;
  p.submit_time = r.submit_time;
  p.resumed = true;
  p.generated = r.generated;
  p.preemptions = r.preemptions + 1;
  p.recomputed_tokens = r.recomputed_tokens;
  p.first_cached = r.cached;
  p.first_admit_time = r.admit_time;
  p.first_token_time = r.first_token_time;
  p.max_prefilled = r.max_prefilled;
  running_.erase(running_.begin() +
                 static_cast<std::ptrdiff_t>(idx));
  return p;
}

bool EngineSession::preempt_below(PriorityClass cls) {
  // Victim: worst effective class strictly below `cls` (strictly — equal
  // classes never preempt each other, which is what makes the
  // preempt/resume cycle terminate); ties broken toward the most recent
  // admission, which has decoded the least and so wastes the least work.
  std::size_t victim = running_.size();
  for (std::size_t i = 0; i < running_.size(); ++i) {
    const PriorityClass c =
        effective_class(running_[i].req.priority, running_[i].submit_time);
    if (c <= cls) continue;
    if (victim == running_.size()) {
      victim = i;
      continue;
    }
    const PriorityClass vc = effective_class(running_[victim].req.priority,
                                             running_[victim].submit_time);
    if (c > vc || (c == vc && running_[i].admit_seq >
                                  running_[victim].admit_seq))
      victim = i;
  }
  if (victim == running_.size()) return false;
  ++last_step_preempted_;
  enqueue_pending(preempt_at(victim, /*automatic=*/true));
  return true;
}

bool EngineSession::preempt(std::uint64_t id) {
  for (std::size_t i = 0; i < running_.size(); ++i) {
    if (running_[i].req.id != id) continue;
    parked_.push_back(preempt_at(i, /*automatic=*/false));
    return true;
  }
  return false;
}

bool EngineSession::resume(std::uint64_t id) {
  for (std::size_t i = 0; i < parked_.size(); ++i) {
    if (parked_[i].req.id != id) continue;
    trace(obs::EventKind::Resume, id, parked_[i].generated, 0, 0,
          parked_[i].req.priority);
    enqueue_pending(std::move(parked_[i]));
    parked_.erase(parked_.begin() + static_cast<std::ptrdiff_t>(i));
    return true;
  }
  return false;
}

std::size_t EngineSession::try_admit() {
  const EngineConfig& config = engine_.config();
  const std::size_t pool_blocks = engine_.kv_pool_blocks();
  const std::size_t bs = config.block_size;
  const bool chunked = config.prefill_chunk_tokens > 0;
  std::size_t admitted = 0;
  last_step_preempted_ = 0;

  for (;;) {
    const PickedCandidate cand = pick_candidate();
    const std::size_t qi = cand.queue;
    if (qi == kNumPriorityClasses) break;
    const PriorityClass cls =
        effective_class(pending_[qi][cand.pos].req.priority,
                        pending_[qi][cand.pos].submit_time);
    if (running_.size() >= config.max_batch_size) {
      // Batch slots full. The head-of-line candidate may take a slot from
      // a strictly lower class; otherwise admission is over this step.
      if (!(config.preemption && preempt_below(cls))) break;
      continue;  // a slot freed (victim re-queued); re-pick
    }
    Pending& p = pending_[qi][cand.pos];
    Request& req = p.req;
    const std::size_t prompt_len = req.prompt.size();
    const std::size_t output_len = std::max<std::size_t>(1, req.output_tokens);

    // A fresh request's lookup counts stats; a preemption resume pins the
    // surviving prefix without recounting (exactly-once across cycles).
    cache::CacheLease lease = p.resumed ? cache_.resume_lookup(req.prompt)
                                        : cache_.lookup(req.prompt);
    const std::size_t cached = lease.cached_tokens;

    // Memory plan: full prompt blocks beyond the cached path move into
    // the shared cache — at admit() under monolithic prefill, or
    // incrementally at chunk boundaries under chunked prefill (which is
    // why the reservation for not-yet-admitted shared blocks counts
    // toward `used` below). The partial prompt tail plus all output
    // tokens are private to this request. (For a resume the same
    // reservation covers already-generated tokens: they are part of the
    // output budget.)
    const std::size_t new_shared =
        config.cache_enabled ? cache_.blocks_needed(prompt_len, cached) : 0;
    const std::size_t private_tokens =
        (config.cache_enabled ? prompt_len % bs : prompt_len) + output_len;
    const std::size_t private_blocks = ceil_div(private_tokens, bs);
    const std::size_t needed = new_shared + private_blocks;

    // Budget against GPU-RESIDENT blocks only: lower-tier blocks occupy
    // host/disk memory, not the KV pool. On a flat cache this is exactly
    // resident_blocks(). A tiered evict() demotes instead of destroying.
    std::size_t used =
        cache_.gpu_resident_blocks() + private_in_use_ + reserved_shared_;
    if (used + needed > pool_blocks) {
      const std::size_t shortfall = used + needed - pool_blocks;
      cache_.evict(shortfall);
      used = cache_.gpu_resident_blocks() + private_in_use_ + reserved_shared_;
    }
    if (used + needed > pool_blocks) {
      trace(obs::EventKind::Defer, req.id, needed, used, pool_blocks,
            req.priority);
      // The request is not admitted this step; the retry will probe
      // again, so this probe must not count (a request that waits K
      // steps would otherwise register K+1 lookups and K+1 hit-token
      // credits, inflating every cache-stats ratio under memory
      // pressure). A resumed request never counted its probe, so only
      // its pins are returned — cancel_lookup would double-subtract.
      if (p.resumed)
        cache_.release(lease);
      else
        cache_.cancel_lookup(lease, prompt_len);
      // Under priority preemption a blocked candidate may free memory by
      // evicting a strictly lower-class running request, then retry.
      if (config.preemption && preempt_below(cls)) continue;
      if (running_.empty())
        throw std::runtime_error(
            "ServingEngine: request cannot fit in KV memory even alone");
      break;  // wait for completions to free memory
    }

    // Tier promotion pricing: a lower-tier hit physically copied its KV
    // back into GPU memory at lookup; the admission pays the transfer
    // BEFORE any prefill reuse, so TTFT honestly includes it. (A lookup
    // that promoted but then deferred pays nothing on retry — the blocks
    // are already GPU-resident.) Zero on a flat cache: the clock advance
    // below is bit-identical to the pre-tier build.
    const double promote_s = engine_.cost_model().promote_seconds(
        lease.promoted_host_blocks, lease.promoted_disk_blocks, bs);
    if (promote_s > 0.0) {
      now_ += promote_s;
      metrics_.promote_seconds += promote_s;
      metrics_.promoted_host_blocks += lease.promoted_host_blocks;
      metrics_.promoted_disk_blocks += lease.promoted_disk_blocks;
    }

    // The uncached suffix to prefill (quadratic attention against the
    // cached context included). A resume also replays its generated
    // tokens — the recompute cost is exactly what the cache no longer
    // covers.
    const std::size_t uncached = prompt_len - cached;
    const std::size_t prefill_tokens = uncached + p.generated;
    if (!chunked) {
      // Monolithic: the whole prefill runs here, inside admission, and
      // the clock (hence every running decode) waits for it.
      const double pf =
          engine_.cost_model().prefill_seconds(prefill_tokens, cached);
      now_ += pf;
      metrics_.prefill_seconds += pf;
      if (p.resumed) {
        metrics_.recompute_prefill_tokens += prefill_tokens;
        metrics_.recompute_prefill_seconds += pf;
        p.recomputed_tokens += prefill_tokens;
      } else {
        metrics_.prompt_tokens += prompt_len;
        metrics_.cached_prompt_tokens += cached;
        metrics_.computed_prompt_tokens += uncached;
      }
      if (config.cache_enabled) cache_.admit(req.prompt, lease);
    } else {
      // Chunked: admission only reserves memory and books the
      // first-admission-only prompt counters; the prefill itself runs as
      // step()-budgeted chunks (computed/recompute book per chunk there).
      if (!p.resumed) {
        metrics_.prompt_tokens += prompt_len;
        metrics_.cached_prompt_tokens += cached;
      } else if (cached > p.max_prefilled) {
        // While the victim was parked, a prefix-sharing request filled
        // the cache past its prefill line: those positions are served
        // from cache and will never be computed by this request, so the
        // hit must be booked (once — the line advances below) or
        // cached + computed == prompt would silently leak them.
        metrics_.cached_prompt_tokens += cached - p.max_prefilled;
      }
    }
    private_in_use_ += private_blocks;

    // Payload carries what the auditor needs to replay the exactly-once
    // cached ledger: this admission's cache coverage, the first-pass
    // line before it, and the resumed/chunked mode bits (the chunked
    // resume rule books max(0, cached - line) extra cached tokens).
    trace(obs::EventKind::Admit, req.id, cached, p.max_prefilled,
          (p.resumed ? 1u : 0u) | (chunked ? 2u : 0u), req.priority);

    Running r;
    r.req = std::move(req);
    r.lease = std::move(lease);
    r.cached = p.resumed ? p.first_cached : cached;
    r.generated = p.generated;
    r.context_len = prompt_len + p.generated;
    r.private_blocks = private_blocks;
    r.admit_time = p.resumed ? p.first_admit_time : now_;
    r.first_token_time = p.first_token_time;
    r.seq = p.seq;
    r.submit_time = p.submit_time;
    r.admit_seq = next_admit_seq_++;
    r.preemptions = p.preemptions;
    r.recomputed_tokens = p.recomputed_tokens;
    // Advance the first-pass line over whatever the cache now covers —
    // even for a fully-cached (straight-to-Decode) admission, so a later
    // preempt/resume cycle cannot re-book the same positions.
    if (chunked) r.max_prefilled = std::max(p.max_prefilled, cached);
    if (chunked && prefill_tokens > 0) {
      r.phase = Phase::Prefill;
      r.prefill_target = prefill_tokens;
      r.prefill_cached = cached;
      r.shared_reserved = new_shared;
      reserved_shared_ += new_shared;
    }
    running_.push_back(std::move(r));
    pending_[qi].erase(pending_[qi].begin() +
                       static_cast<std::ptrdiff_t>(cand.pos));
    ++admitted;
  }
  return admitted;
}

void EngineSession::update_reservation(Running& r) {
  if (!engine_.config().cache_enabled) return;
  const std::size_t remaining =
      cache_.blocks_needed(r.req.prompt.size(), r.lease.cached_tokens);
  const std::size_t released =
      r.shared_reserved > remaining ? r.shared_reserved - remaining : 0;
  reserved_shared_ -= released;
  r.shared_reserved -= released;
}

void EngineSession::finish_prefill(Running& r) {
  if (engine_.config().cache_enabled) {
    cache_.admit(r.req.prompt, r.lease);
    update_reservation(r);
  }
  r.phase = Phase::Decode;
}

void EngineSession::run_prefill_chunks() {
  const EngineConfig& config = engine_.config();
  std::size_t budget = config.prefill_chunk_tokens;

  // Budget goes out in strict effective-priority order (ties: admission
  // order) — the same rule admission uses — so an interactive prompt that
  // lands mid-way through a long batch prefill takes the next chunks and
  // reaches its first token first, instead of queueing behind every
  // chunk the batch prompt has left. The budget is one chunk, shared when
  // a prompt's last chunk is short, so decode-phase requests are never
  // stalled more than one chunk of prefill.
  std::vector<std::size_t>& order = prefill_order_;
  order.clear();
  for (std::size_t i = 0; i < running_.size(); ++i)
    if (running_[i].phase == Phase::Prefill) order.push_back(i);
  std::sort(order.begin(), order.end(), [&](std::size_t a, std::size_t b) {
    const PriorityClass ca =
        effective_class(running_[a].req.priority, running_[a].submit_time);
    const PriorityClass cb =
        effective_class(running_[b].req.priority, running_[b].submit_time);
    if (ca != cb) return ca < cb;
    return running_[a].admit_seq < running_[b].admit_seq;
  });
  for (const std::size_t idx : order) {
    if (budget == 0) break;
    Running& r = running_[idx];
    const std::size_t take =
        std::min(budget, r.prefill_target - r.prefill_done);
    const double pf = engine_.cost_model().prefill_seconds(
        take, r.prefill_cached + r.prefill_done);
    now_ += pf;
    metrics_.prefill_seconds += pf;
    ++metrics_.prefill_chunks;
    metrics_.chunked_prefill_tokens += take;
    // First-pass vs replay split by prompt position: tokens above the
    // request's furthest-ever-prefilled line are first-pass work (each
    // prompt position books computed exactly once over the request's
    // lifetime, so cached + computed == prompt survives preemption);
    // tokens at or below it — progress lost to an unaligned preemption
    // or eviction — and generated-token replay beyond the prompt are
    // recompute.
    const std::size_t pos_start = r.prefill_cached + r.prefill_done;
    const std::size_t pos_end =
        std::min(pos_start + take, r.req.prompt.size());
    const std::size_t line = std::max(pos_start, r.max_prefilled);
    const std::size_t fresh = pos_end > line ? pos_end - line : 0;
    const std::size_t replay = take - fresh;
    metrics_.computed_prompt_tokens += fresh;
    if (replay > 0) {
      const double rec_pf =
          pf * static_cast<double>(replay) / static_cast<double>(take);
      metrics_.recompute_prefill_tokens += replay;
      metrics_.recompute_prefill_seconds += rec_pf;
      r.recomputed_tokens += replay;
    }
    if (pos_end > r.max_prefilled) r.max_prefilled = pos_end;
    r.prefill_done += take;
    budget -= take;
    trace(obs::EventKind::PrefillChunk, r.req.id, take, fresh, replay,
          r.req.priority);

    if (r.prefill_done >= r.prefill_target) {
      finish_prefill(r);
      continue;
    }
    // Incremental admit at block-aligned chunk boundaries: everything the
    // context now covers (cached prefix + chunk progress, capped at the
    // prompt — a resume's replayed generated tokens are private, never
    // cached) becomes reusable by followers mid-prefill.
    const std::size_t covered = std::min(
        r.prefill_cached + r.prefill_done, r.req.prompt.size());
    if (config.cache_enabled &&
        covered / config.block_size > r.lease.path.size()) {
      cache_.admit(
          std::span<const tokenizer::TokenId>(r.req.prompt.data(), covered),
          r.lease);
      update_reservation(r);
    }
  }
}

EngineSession::StepEvents EngineSession::step() {
  const bool chunked = engine_.config().prefill_chunk_tokens > 0;
  // Stall watch: requests already decoding when the step begins are the
  // ones whose next token waits for everything this step runs first
  // (admission prefill under monolithic mode, chunk budget under
  // chunking). The longest such wait is the worst inter-token gap.
  bool stall_watch = false;
  for (const auto& r : running_) {
    if (!chunked || r.phase == Phase::Decode) {
      stall_watch = true;
      break;
    }
  }
  const double step_start = now_;

  StepEvents ev;
  ev.admitted = try_admit();
  ev.preempted = last_step_preempted_;
  if (running_.empty()) return ev;

  if (chunked) run_prefill_chunks();

  // Peak concurrent admitted requests (prefill + decode phases); the
  // decode-only batch sizes feed sum_batch_size below.
  metrics_.peak_batch_size =
      std::max(metrics_.peak_batch_size, running_.size());

  // One decode step across the decode-phase batch.
  std::vector<std::size_t>& ctx = decode_ctx_;
  ctx.clear();
  for (const auto& r : running_)
    if (r.phase == Phase::Decode) ctx.push_back(r.context_len);
  if (!ctx.empty()) {
    const double dt = engine_.cost_model().decode_step_seconds(ctx);
    now_ += dt;
    metrics_.decode_seconds += dt;
    ++metrics_.decode_steps;
    metrics_.sum_batch_size += static_cast<double>(ctx.size());
    metrics_.output_tokens += ctx.size();

    // Advance and retire completed requests (prefill-phase requests have
    // not decoded and cannot complete).
    for (auto it = running_.begin(); it != running_.end();) {
      if (it->phase != Phase::Decode) {
        ++it;
        continue;
      }
      ++it->generated;
      ++it->context_len;
      if (it->first_token_time == 0.0) {
        it->first_token_time = now_;
        trace(obs::EventKind::FirstToken, it->req.id, it->generated, 0, 0,
              it->req.priority);
      }
      const std::size_t want = std::max<std::size_t>(1, it->req.output_tokens);
      if (it->generated >= want) {
        RequestResult res;
        res.id = it->req.id;
        res.row_tag = it->req.row_tag;
        res.prompt_tokens = it->req.prompt.size();
        res.cached_tokens = it->cached;
        res.computed_tokens = res.prompt_tokens - it->cached;
        res.output_tokens = it->generated;
        res.admit_time = it->admit_time;
        res.first_token_time = it->first_token_time;
        res.finish_time = now_;
        res.priority = it->req.priority;
        res.preemptions = it->preemptions;
        res.recomputed_tokens = it->recomputed_tokens;
        ev.completed.push_back(res);
        trace(obs::EventKind::Finish, res.id, res.output_tokens,
              res.prompt_tokens, res.cached_tokens, res.priority);
        cache_.release(it->lease);
        private_in_use_ -= it->private_blocks;
        // Normally zero by finish_prefill; a capacity-limited caller
        // cache can leave admit() short of the plan, and the leftover
        // reservation must not outlive the request.
        reserved_shared_ -= it->shared_reserved;
        outstanding_prompt_tokens_ -= res.prompt_tokens;
        it = running_.erase(it);
      } else {
        ++it;
      }
    }
    trace(obs::EventKind::DecodeStep, 0, ctx.size(), ev.completed.size(), 0,
          PriorityClass::Interactive);
  }
  if (stall_watch && now_ > step_start)
    metrics_.max_decode_stall_seconds =
        std::max(metrics_.max_decode_stall_seconds, now_ - step_start);
  return ev;
}

std::vector<RequestResult> EngineSession::drain() {
  std::vector<RequestResult> out;
  while (has_work()) {
    StepEvents ev = step();
    out.insert(out.end(), ev.completed.begin(), ev.completed.end());
  }
  return out;
}

void EngineSession::advance_to(double t) {
  if (has_work())
    throw std::logic_error(
        "EngineSession::advance_to: clock advances only through decode "
        "steps while requests are in flight");
  now_ = std::max(now_, t);
}

obs::GaugeSample EngineSession::gauges() const {
  obs::GaugeSample g;
  g.kv_resident_blocks = cache_.resident_blocks();
  g.kv_host_blocks = cache_.tier_resident_blocks(1);
  g.kv_disk_blocks = cache_.tier_resident_blocks(2);
  g.kv_private_blocks = private_in_use_;
  g.kv_reserved_blocks = reserved_shared_;
  g.kv_pinned_blocks = cache_.pinned_blocks();
  for (std::size_t b = 0; b < kNumPriorityClasses; ++b)
    g.pending_by_class[b] = pending_[b].size();
  for (const Running& r : running_) {
    if (r.phase == Phase::Prefill)
      ++g.running_prefill;
    else
      ++g.running_decode;
  }
  g.parked = parked_.size();
  g.outstanding_prompt_tokens = outstanding_prompt_tokens_;
  g.rolling_phr =
      metrics_.prompt_tokens
          ? static_cast<double>(metrics_.cached_prompt_tokens) /
                static_cast<double>(metrics_.prompt_tokens)
          : 0.0;
  return g;
}

EngineMetrics EngineSession::metrics() const {
  EngineMetrics m = metrics_;
  m.total_seconds = now_;
  // Per-session cache stats: field-wise delta against the cache's running
  // totals (the helper covers every CacheStats counter, present and
  // future — see the tripwire next to its definition).
  m.cache = cache_.stats() - stats_at_start_;
  return m;
}

}  // namespace llmq::llm
