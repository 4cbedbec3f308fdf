// Chunked prefill + token-budget continuous batching (EngineSession).
//
// The contract under test: prefill_chunk_tokens == 0 keeps the monolithic
// admission prefill bit-exactly (the historical behavior the replay and
// equivalence suites pin); > 0 turns an admission into a prefill phase
// whose chunks interleave with decode steps, bounding the stall any
// in-flight decode sits through, admitting the prompt into the prefix
// cache incrementally at block-aligned boundaries, and keeping every
// token/lookup/pin ledger exactly-once across preempt/resume cycles.

#include <gtest/gtest.h>

#include <algorithm>
#include <map>

#include "llm/engine_session.hpp"
#include "util/rng.hpp"

namespace llmq::llm {
namespace {

ModelSpec tiny_model() {
  ModelSpec m;
  m.name = "tiny";
  m.params = 1e9;
  m.n_layers = 8;
  m.hidden_dim = 512;
  m.n_heads = 8;
  m.n_kv_heads = 8;
  m.head_dim = 64;
  m.dtype_bytes = 2;
  return m;
}

ServingEngine make_engine(std::size_t chunk_tokens,
                          std::size_t pool_blocks = 4096,
                          std::size_t max_batch = 8,
                          bool preemption = false) {
  EngineConfig ec;
  ec.max_batch_size = max_batch;
  ec.block_size = 16;
  ec.kv_pool_blocks_override = pool_blocks;
  ec.preemption = preemption;
  ec.prefill_chunk_tokens = chunk_tokens;
  return ServingEngine(CostModel(tiny_model(), l4()), ec);
}

Request make_request(std::uint64_t id, std::size_t prompt_len,
                     std::size_t output_tokens, PriorityClass cls,
                     std::uint32_t stem = 0) {
  Request r;
  r.id = id;
  r.priority = cls;
  r.output_tokens = output_tokens;
  for (std::size_t k = 0; k < prompt_len; ++k)
    r.prompt.push_back(static_cast<tokenizer::TokenId>(stem * 100000 + k));
  return r;
}

/// `shared_stem` > 0 prefixes every prompt with that many common tokens
/// (prefix-cache traffic); 0 makes all prompts pairwise divergent.
std::vector<Request> random_requests(std::size_t n, std::uint64_t seed,
                                     std::size_t shared_stem) {
  util::Rng rng(seed);
  std::vector<Request> reqs;
  for (std::size_t i = 0; i < n; ++i) {
    Request r;
    r.id = i;
    const std::size_t len =
        std::max<std::size_t>(shared_stem + 8, 24 + rng.next_below(200));
    for (std::size_t k = 0; k < len; ++k)
      r.prompt.push_back(
          k < shared_stem
              ? static_cast<tokenizer::TokenId>(k)
              : static_cast<tokenizer::TokenId>(1000 + i * 100000 +
                                                rng.next_below(1000)));
    r.output_tokens = 1 + rng.next_below(8);
    reqs.push_back(std::move(r));
  }
  return reqs;
}

BatchRunResult run_batch(const ServingEngine& engine,
                         const std::vector<Request>& reqs) {
  auto cache = engine.make_session_cache();
  EngineSession session(engine, cache);
  for (const auto& r : reqs) session.submit(r);
  BatchRunResult out;
  out.results = session.drain();
  out.metrics = session.metrics();
  EXPECT_EQ(cache.check_invariants(), "");
  return out;
}

TEST(CostModelChunking, ChunkScheduleTelescopesToMonolithicFlops) {
  const CostModel cm(tiny_model(), l4());
  // Sum over chunks of (t*c + t^2/2) with the context grown per chunk is
  // exactly the monolithic attended-position count, so the chunk schedule
  // costs the same seconds (modulo FP summation order).
  // The engine prices each chunk with prefill_seconds at the context its
  // predecessors grew.
  const auto chunked = [&](std::size_t new_tokens, std::size_t cached,
                           std::size_t chunk) {
    double total = 0.0;
    for (std::size_t done = 0; done < new_tokens; done += chunk)
      total += cm.prefill_seconds(std::min(chunk, new_tokens - done),
                                  cached + done);
    return total;
  };
  for (std::size_t chunk : {1u, 7u, 16u, 100u, 1000u}) {
    EXPECT_NEAR(chunked(513, 64, chunk), cm.prefill_seconds(513, 64),
                1e-12 + 1e-9 * cm.prefill_seconds(513, 64))
        << "chunk=" << chunk;
  }
  EXPECT_EQ(chunked(0, 10, 8), 0.0);
}

TEST(ChunkedPrefill, DivergentPromptsMatchMonolithicAccountingExactly) {
  // With no prefix sharing the cache is irrelevant to WHAT gets computed,
  // so chunking must change only the schedule: every token counter and
  // per-request result matches the monolithic run, and the total prefill
  // seconds telescope to the same sum.
  const auto reqs = random_requests(24, 99, /*shared_stem=*/0);
  const auto mono = run_batch(make_engine(/*chunk=*/0), reqs);
  EXPECT_EQ(mono.metrics.prefill_chunks, 0u);
  EXPECT_EQ(mono.metrics.chunked_prefill_tokens, 0u);
  for (std::size_t chunk : {16u, 64u, 256u}) {
    const auto chk = run_batch(make_engine(chunk), reqs);
    EXPECT_EQ(chk.metrics.prompt_tokens, mono.metrics.prompt_tokens);
    EXPECT_EQ(chk.metrics.cached_prompt_tokens, 0u);
    EXPECT_EQ(chk.metrics.computed_prompt_tokens,
              mono.metrics.computed_prompt_tokens);
    EXPECT_EQ(chk.metrics.output_tokens, mono.metrics.output_tokens);
    EXPECT_EQ(chk.metrics.cache.lookups, mono.metrics.cache.lookups);
    // No preemption here: every chunk is first-pass work.
    EXPECT_EQ(chk.metrics.recompute_prefill_tokens, 0u);
    EXPECT_EQ(chk.metrics.chunked_prefill_tokens,
              chk.metrics.computed_prompt_tokens);
    EXPECT_GT(chk.metrics.prefill_chunks, 0u);
    // Same total prefill work, reordered (FP-summation tolerance).
    EXPECT_NEAR(chk.metrics.prefill_seconds, mono.metrics.prefill_seconds,
                1e-9 * mono.metrics.prefill_seconds + 1e-12);

    ASSERT_EQ(chk.results.size(), mono.results.size());
    std::map<std::uint64_t, RequestResult> by_id;
    for (const auto& r : mono.results) by_id[r.id] = r;
    for (const auto& r : chk.results) {
      const auto& m = by_id.at(r.id);
      EXPECT_EQ(r.prompt_tokens, m.prompt_tokens);
      EXPECT_EQ(r.cached_tokens, m.cached_tokens);
      EXPECT_EQ(r.computed_tokens, m.computed_tokens);
      EXPECT_EQ(r.output_tokens, m.output_tokens);
      EXPECT_EQ(r.preemptions, 0u);
    }
  }
}

TEST(ChunkedPrefill, SharedPrefixRunConservesPromptAccounting) {
  // With a shared stem the cache DOES move work between requests, and the
  // chunked schedule legitimately shifts how much each follower finds
  // cached (a same-round follower sees only the leader's chunk progress,
  // not its completed prefill). What must hold regardless: per-run
  // conservation — every prompt token was either a hit or first-pass
  // computed, chunk bookkeeping covers exactly the computed work, and
  // lookups stay one per request.
  const auto reqs = random_requests(24, 4242, /*shared_stem=*/48);
  const auto mono = run_batch(make_engine(/*chunk=*/0), reqs);
  for (std::size_t chunk : {16u, 64u}) {
    const auto chk = run_batch(make_engine(chunk), reqs);
    EXPECT_EQ(chk.metrics.prompt_tokens, mono.metrics.prompt_tokens);
    EXPECT_EQ(chk.metrics.output_tokens, mono.metrics.output_tokens);
    EXPECT_EQ(chk.metrics.cache.lookups, mono.metrics.cache.lookups);
    EXPECT_EQ(chk.metrics.cached_prompt_tokens +
                  chk.metrics.computed_prompt_tokens,
              chk.metrics.prompt_tokens);
    EXPECT_EQ(chk.metrics.chunked_prefill_tokens,
              chk.metrics.computed_prompt_tokens);
    EXPECT_GT(chk.metrics.cached_prompt_tokens, 0u);
  }
}

TEST(ChunkedPrefill, BoundsTheDecodeStallAMonolithicAdmissionCauses) {
  // A short interactive request is mid-decode when a very long prompt
  // arrives. Monolithic admission freezes its decode for the entire
  // prefill; chunking caps the gap near one chunk + one decode step.
  const auto run = [](std::size_t chunk) {
    const ServingEngine engine = make_engine(chunk, 1u << 14, 8);
    auto cache = engine.make_session_cache();
    EngineSession session(engine, cache);
    session.submit(make_request(1, 32, 64, PriorityClass::Standard, 1));
    session.step();  // admit + first decode token
    session.submit(make_request(2, 4096, 4, PriorityClass::Standard, 2));
    while (session.has_work()) session.step();
    return session.metrics();
  };
  const EngineMetrics mono = run(0);
  const EngineMetrics chk = run(128);
  EXPECT_GT(mono.max_decode_stall_seconds, 0.0);
  EXPECT_GT(chk.max_decode_stall_seconds, 0.0);
  // The monolithic stall is the whole 4096-token prefill; the chunked one
  // is ~128 tokens of prefill + a decode step. Require a big margin so
  // the test pins the mechanism, not a lucky constant.
  EXPECT_LT(chk.max_decode_stall_seconds,
            0.25 * mono.max_decode_stall_seconds);
}

TEST(ChunkedPrefill, PartiallyPrefilledPromptIsReusableByFollowers) {
  const std::size_t bs = 16;
  const ServingEngine engine = make_engine(/*chunk=*/64, 1u << 14);
  auto cache = engine.make_session_cache();
  EngineSession session(engine, cache);

  const Request leader = make_request(1, 1024, 4, PriorityClass::Standard, 7);
  session.submit(leader);
  session.step();  // admits; runs the first chunk
  // Mid-prefill, the chunk-boundary admits must already expose the
  // block-aligned progress to a read-only probe...
  const std::size_t mid = cache.peek(leader.prompt);
  EXPECT_GT(mid, 0u);
  EXPECT_LT(mid, 1024u);
  EXPECT_EQ(mid % bs, 0u);
  session.step();
  // ...and coverage grows chunk by chunk.
  EXPECT_GT(cache.peek(leader.prompt), mid);

  // A follower sharing the prompt admits against the partial prefix and
  // reports the hit, long before the leader finished prefilling.
  Request follower = leader;
  follower.id = 2;
  session.submit(follower);
  std::vector<RequestResult> done = session.drain();
  ASSERT_EQ(done.size(), 2u);
  for (const auto& r : done) {
    if (r.id == 2) {
      EXPECT_GT(r.cached_tokens, 0u);
    }
  }
  EXPECT_EQ(cache.check_invariants(), "");
}

TEST(ChunkedPrefill, PreemptDuringPrefillKeepsLedgersExactlyOnce) {
  // max_batch_size 1 forces slot preemption: a batch-class long prompt is
  // mid-prefill when an interactive request arrives and evicts it. The
  // victim's resume must replay through the cache with no double-counted
  // lookup/hit stats, the pin ledger must balance at every step, and
  // first-pass + recompute chunk work must sum to chunked_prefill_tokens.
  const ServingEngine engine =
      make_engine(/*chunk=*/32, 1u << 14, /*max_batch=*/1, /*preemption=*/true);
  auto cache = engine.make_session_cache();
  EngineSession session(engine, cache);

  session.submit(make_request(1, 512, 4, PriorityClass::Batch, 1));
  session.step();  // admit the batch request; first prefill chunk runs
  ASSERT_EQ(session.num_running(), 1u);
  session.submit(make_request(2, 64, 2, PriorityClass::Interactive, 2));

  std::size_t completed = 0;
  std::size_t victim_preemptions = 0;
  while (session.has_work()) {
    const auto ev = session.step();
    ASSERT_EQ(cache.check_invariants(), "") << "pin ledger broke mid-run";
    for (const auto& res : ev.completed) {
      ++completed;
      if (res.id == 1) victim_preemptions = res.preemptions;
    }
  }
  EXPECT_EQ(completed, 2u);
  EXPECT_GE(victim_preemptions, 1u);

  const EngineMetrics m = session.metrics();
  // Exactly-once: one lookup per request despite the preempt/resume cycle,
  // prompt counters booked at first admission only.
  EXPECT_EQ(m.cache.lookups, 2u);
  EXPECT_EQ(m.prompt_tokens, 512u + 64u);
  // Every chunk booked exactly once, to first-pass OR recompute, and every
  // prompt position computed exactly once across the preempt/resume cycle
  // — so prompt conservation holds even under preemption.
  EXPECT_EQ(m.chunked_prefill_tokens,
            m.computed_prompt_tokens + m.recompute_prefill_tokens);
  EXPECT_EQ(m.cached_prompt_tokens + m.computed_prompt_tokens,
            m.prompt_tokens);
  // Block-aligned chunks (32 = 2 blocks) admit everything they prefill,
  // and the victim had not decoded yet: the preemption wasted NO work, and
  // the recompute ledger says so.
  EXPECT_EQ(m.recompute_prefill_tokens, 0u);
  EXPECT_EQ(cache.check_invariants(), "");
}

TEST(ChunkedPrefill, UnalignedChunkPreemptionReplaysOnlyTheLostTail) {
  // chunk = 24 on 16-token blocks: each chunk strands up to 8 tokens past
  // the last block boundary. A preemption mid-prefill loses exactly that
  // unadmitted tail — the recompute ledger must show the stranded tokens
  // (and only them) while prompt conservation still holds.
  const ServingEngine engine =
      make_engine(/*chunk=*/24, 1u << 14, /*max_batch=*/1, /*preemption=*/true);
  auto cache = engine.make_session_cache();
  EngineSession session(engine, cache);

  session.submit(make_request(1, 512, 4, PriorityClass::Batch, 1));
  session.step();  // one 24-token chunk; only 16 tokens hit the cache
  session.submit(make_request(2, 64, 2, PriorityClass::Interactive, 2));
  while (session.has_work()) {
    session.step();
    ASSERT_EQ(cache.check_invariants(), "");
  }

  const EngineMetrics m = session.metrics();
  EXPECT_GT(m.preemptions, 0u);
  // The stranded 8 tokens were prefilled twice: once as first-pass before
  // the preemption, once as replay after it.
  EXPECT_EQ(m.recompute_prefill_tokens, 8u);
  EXPECT_EQ(m.cached_prompt_tokens + m.computed_prompt_tokens,
            m.prompt_tokens);
  EXPECT_EQ(m.chunked_prefill_tokens,
            m.computed_prompt_tokens + m.recompute_prefill_tokens);
}

TEST(ChunkedPrefill, ExplicitPreemptDuringPrefillReleasesReservation) {
  // Park a request mid-prefill via the public preempt(); its shared-block
  // reservation and private blocks must be returned (another long prompt
  // can then admit), and resume() completes it with balanced ledgers.
  const ServingEngine engine = make_engine(/*chunk=*/32, 256, 4);
  auto cache = engine.make_session_cache();
  EngineSession session(engine, cache);

  // 256-block pool; 200*16=3200-token prompt needs 200 shared blocks.
  session.submit(make_request(1, 3200, 2, PriorityClass::Standard, 1));
  session.step();
  ASSERT_EQ(session.num_running(), 1u);
  ASSERT_TRUE(session.preempt(1));
  EXPECT_EQ(session.num_parked(), 1u);

  // With the reservation released, an equally long prompt fits (the
  // victim's already-admitted blocks are unpinned and evictable).
  session.submit(make_request(2, 3200, 2, PriorityClass::Standard, 2));
  std::size_t completed = 0;
  while (session.has_work()) {
    completed += session.step().completed.size();
    ASSERT_EQ(cache.check_invariants(), "");
  }
  EXPECT_EQ(completed, 1u);  // request 2; request 1 is still parked
  ASSERT_TRUE(session.resume(1));
  const auto done = session.drain();
  ASSERT_EQ(done.size(), 1u);
  EXPECT_EQ(done[0].id, 1u);
  EXPECT_EQ(session.metrics().cache.lookups, 2u);
  EXPECT_EQ(cache.check_invariants(), "");
}

TEST(ChunkedPrefill, SharedPromptPreemptResumeStillConservesAccounting) {
  // The adversarial sharing case: victim A is preempted mid-prefill and
  // the preemptor B carries the IDENTICAL prompt, so B fills the cache
  // past A's prefill line while A is parked. A's resume finds the whole
  // prompt cached and skips to decode — those positions must be booked as
  // cache hits (they were computed once, by B) or cached + computed
  // silently loses them.
  const ServingEngine engine =
      make_engine(/*chunk=*/32, 1u << 14, /*max_batch=*/1, /*preemption=*/true);
  auto cache = engine.make_session_cache();
  EngineSession session(engine, cache);

  const Request a = make_request(1, 512, 4, PriorityClass::Batch, 9);
  session.submit(a);
  session.step();  // one chunk of A's prefill
  Request b = a;
  b.id = 2;
  b.priority = PriorityClass::Interactive;
  b.output_tokens = 2;
  session.submit(b);  // preempts A, prefills the same prompt fully

  std::size_t completed = 0;
  while (session.has_work()) {
    completed += session.step().completed.size();
    ASSERT_EQ(cache.check_invariants(), "");
  }
  EXPECT_EQ(completed, 2u);

  const EngineMetrics m = session.metrics();
  EXPECT_EQ(m.prompt_tokens, 1024u);
  EXPECT_EQ(m.cached_prompt_tokens + m.computed_prompt_tokens,
            m.prompt_tokens);
  EXPECT_EQ(m.chunked_prefill_tokens,
            m.computed_prompt_tokens + m.recompute_prefill_tokens);
  // Each of the 512 positions was computed exactly once fleet-wide (A's
  // first chunk + B's remainder); nothing was wasted, nothing replayed.
  EXPECT_EQ(m.computed_prompt_tokens, 512u);
  EXPECT_EQ(m.recompute_prefill_tokens, 0u);
}

TEST(ChunkedPrefill, FullyCachedAdmissionSkipsThePrefillPhase) {
  const ServingEngine engine = make_engine(/*chunk=*/32, 1u << 14);
  auto cache = engine.make_session_cache();
  EngineSession session(engine, cache);
  // Block-aligned prompt: after the leader, a duplicate is 100% cached and
  // must start decoding on its very first step (no prefill phase).
  const Request leader = make_request(1, 128, 2, PriorityClass::Standard, 3);
  session.submit(leader);
  session.drain();
  Request dup = leader;
  dup.id = 2;
  session.submit(dup);
  const auto ev = session.step();
  EXPECT_EQ(ev.admitted, 1u);
  const auto done = session.drain();
  const EngineMetrics m = session.metrics();
  EXPECT_EQ(m.cached_prompt_tokens, 128u);
  EXPECT_EQ(cache.check_invariants(), "");
  (void)done;
}

}  // namespace
}  // namespace llmq::llm
