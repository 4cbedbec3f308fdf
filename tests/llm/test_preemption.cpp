// Engine-level priority preemption: pause/evict/resume mechanics,
// strict-priority admission, aging, and the exactly-once token + cache-stat
// accounting contract across preempt/resume cycles (DESIGN.md §5).

#include <gtest/gtest.h>

#include <algorithm>

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

ServingEngine make_engine(std::size_t pool_blocks, std::size_t max_batch,
                          bool preemption, double aging_seconds = 0.0) {
  EngineConfig ec;
  ec.max_batch_size = max_batch;
  ec.block_size = 16;
  ec.kv_pool_blocks_override = pool_blocks;
  ec.preemption = preemption;
  ec.priority_aging_seconds = aging_seconds;
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
    r.prompt.push_back(static_cast<tokenizer::TokenId>(stem * 10000 + k));
  return r;
}

TEST(PriorityClassVocab, ToStringNames) {
  EXPECT_EQ(to_string(PriorityClass::Interactive), "interactive");
  EXPECT_EQ(to_string(PriorityClass::Standard), "standard");
  EXPECT_EQ(to_string(PriorityClass::Batch), "batch");
}

TEST(PriorityClassVocab, AgingPromotesTowardInteractiveAndClamps) {
  EXPECT_EQ(aged_class(PriorityClass::Batch, 100.0, 0.0),
            PriorityClass::Batch);  // aging disabled
  EXPECT_EQ(aged_class(PriorityClass::Batch, 0.5, 1.0), PriorityClass::Batch);
  EXPECT_EQ(aged_class(PriorityClass::Batch, 1.5, 1.0),
            PriorityClass::Standard);
  EXPECT_EQ(aged_class(PriorityClass::Batch, 2.5, 1.0),
            PriorityClass::Interactive);
  EXPECT_EQ(aged_class(PriorityClass::Batch, 500.0, 1.0),
            PriorityClass::Interactive);  // clamped
  EXPECT_EQ(aged_class(PriorityClass::Interactive, 500.0, 1.0),
            PriorityClass::Interactive);
}

TEST(EngineSessionPreemption, ExplicitPauseEvictResumeRoundTrip) {
  const ServingEngine engine = make_engine(4096, 8, /*preemption=*/false);
  auto cache = engine.make_session_cache();
  EngineSession session(engine, cache);

  session.submit(make_request(1, 64, 16, PriorityClass::Batch));
  session.step();  // admit + one decode step
  ASSERT_EQ(session.num_running(), 1u);

  // Pause: the request leaves the batch and its KV pins are returned.
  EXPECT_TRUE(session.preempt(1));
  EXPECT_EQ(session.num_running(), 0u);
  EXPECT_EQ(session.num_parked(), 1u);
  EXPECT_FALSE(session.has_work());  // parked != work; the pauser owns it
  EXPECT_EQ(cache.check_invariants(), "");
  // Still outstanding: the request has not completed.
  EXPECT_EQ(session.outstanding_prompt_tokens(), 64u);
  EXPECT_FALSE(session.preempt(1));  // not running anymore

  // Resume re-queues; drain completes it with full output.
  EXPECT_TRUE(session.resume(1));
  EXPECT_FALSE(session.resume(1));  // no longer parked
  const auto results = session.drain();
  ASSERT_EQ(results.size(), 1u);
  EXPECT_EQ(results[0].output_tokens, 16u);
  EXPECT_EQ(results[0].preemptions, 1u);
  EXPECT_GT(results[0].recomputed_tokens, 0u);
  EXPECT_EQ(session.outstanding_prompt_tokens(), 0u);

  const EngineMetrics m = session.metrics();
  EXPECT_EQ(m.preemptions, 1u);
  EXPECT_EQ(m.recompute_prefill_tokens, results[0].recomputed_tokens);
  EXPECT_GT(m.recompute_prefill_seconds, 0.0);
  // Exactly-once: prompt/output counted once despite two admissions.
  EXPECT_EQ(m.prompt_tokens, 64u);
  EXPECT_EQ(m.output_tokens, 16u);
  EXPECT_EQ(m.cache.lookups, 1u);  // the resume probe did not count
  EXPECT_EQ(cache.check_invariants(), "");
}

TEST(EngineSessionPreemption, ResumeReplaysThroughCacheCheaply) {
  // Preempt after some decode, leave the cached prompt blocks resident:
  // the resume's recompute must cover only the uncached prompt suffix plus
  // the generated tokens — not the whole prompt.
  const ServingEngine engine = make_engine(4096, 8, false);
  auto cache = engine.make_session_cache();
  EngineSession session(engine, cache);

  session.submit(make_request(7, 64, 16, PriorityClass::Batch));
  session.step();
  session.step();  // 2 tokens generated
  ASSERT_TRUE(session.preempt(7));
  ASSERT_TRUE(session.resume(7));
  const auto results = session.drain();
  ASSERT_EQ(results.size(), 1u);
  // Prompt is 4 full blocks, all admitted to cache at first admission and
  // still resident (nothing evicted in a huge pool): recompute = 0 prompt
  // tokens + 2 generated tokens.
  EXPECT_EQ(results[0].recomputed_tokens, 2u);
  EXPECT_EQ(results[0].output_tokens, 16u);
}

TEST(EngineSessionPreemption, AutoPreemptionAdmitsInteractiveUnderKvPressure) {
  // Pool sized so one long batch request saturates KV; an interactive
  // arrival must evict it rather than queue behind it.
  const ServingEngine engine = make_engine(8, 8, /*preemption=*/true);
  auto cache = engine.make_session_cache();
  EngineSession session(engine, cache);

  session.submit(make_request(1, 64, 64, PriorityClass::Batch, /*stem=*/1));
  session.step();
  ASSERT_EQ(session.num_running(), 1u);

  session.submit(make_request(2, 64, 8, PriorityClass::Interactive, 2));
  const auto ev = session.step();
  EXPECT_EQ(ev.preempted, 1u);
  EXPECT_EQ(ev.admitted, 1u);
  ASSERT_EQ(session.num_running(), 1u);

  const auto results = session.drain();
  ASSERT_EQ(results.size(), 2u);
  // Interactive finishes first despite arriving second.
  EXPECT_EQ(results[0].id, 2u);
  EXPECT_EQ(results[0].preemptions, 0u);
  EXPECT_EQ(results[1].id, 1u);
  EXPECT_GE(results[1].preemptions, 1u);
  EXPECT_EQ(results[1].output_tokens, 64u);
  EXPECT_EQ(session.metrics().preemptions, results[1].preemptions);
  EXPECT_EQ(cache.check_invariants(), "");
}

TEST(EngineSessionPreemption, BatchSlotPreemptionPrefersLatestAdmission) {
  // Slots are the scarce resource (huge KV pool, max_batch = 2): an
  // interactive arrival evicts the most recently admitted of the two
  // batch requests (least decoded work lost).
  const ServingEngine engine = make_engine(4096, 2, true);
  auto cache = engine.make_session_cache();
  EngineSession session(engine, cache);

  session.submit(make_request(1, 32, 64, PriorityClass::Batch, 1));
  session.step();
  session.submit(make_request(2, 32, 64, PriorityClass::Batch, 2));
  session.step();
  ASSERT_EQ(session.num_running(), 2u);

  session.submit(make_request(3, 32, 4, PriorityClass::Interactive, 3));
  const auto ev = session.step();
  EXPECT_EQ(ev.preempted, 1u);
  // Request 2 (admitted later) was the victim; request 1 kept running.
  const auto results = session.drain();
  std::size_t p1 = 0, p2 = 0;
  for (const auto& r : results) {
    if (r.id == 1) p1 = r.preemptions;
    if (r.id == 2) p2 = r.preemptions;
  }
  EXPECT_EQ(p1, 0u);
  EXPECT_GE(p2, 1u);
}

TEST(EngineSessionPreemption, EqualClassNeverPreempts) {
  const ServingEngine engine = make_engine(8, 8, true);
  auto cache = engine.make_session_cache();
  EngineSession session(engine, cache);

  session.submit(make_request(1, 64, 32, PriorityClass::Interactive, 1));
  session.step();
  session.submit(make_request(2, 64, 8, PriorityClass::Interactive, 2));
  const auto ev = session.step();
  EXPECT_EQ(ev.preempted, 0u);  // same class: waits for memory instead
  const auto results = session.drain();
  ASSERT_EQ(results.size(), 2u);
  EXPECT_EQ(results[0].id, 1u);  // FIFO within the class
  EXPECT_EQ(session.metrics().preemptions, 0u);
}

TEST(EngineSessionPreemption, StrictPriorityAdmissionFifoWithinClass) {
  // One slot; everything queues; admission must go by class then seq.
  const ServingEngine engine = make_engine(4096, 1, false);
  auto cache = engine.make_session_cache();
  EngineSession session(engine, cache);

  session.submit(make_request(1, 32, 2, PriorityClass::Batch, 1));
  session.submit(make_request(2, 32, 2, PriorityClass::Standard, 2));
  session.submit(make_request(3, 32, 2, PriorityClass::Interactive, 3));
  session.submit(make_request(4, 32, 2, PriorityClass::Interactive, 4));
  const auto results = session.drain();
  ASSERT_EQ(results.size(), 4u);
  EXPECT_EQ(results[0].id, 3u);
  EXPECT_EQ(results[1].id, 4u);
  EXPECT_EQ(results[2].id, 2u);
  EXPECT_EQ(results[3].id, 1u);
}

TEST(EngineSessionPreemption, AgingEventuallyAdmitsBatchAheadOfFreshWork) {
  // Without aging, a batch request starves behind a steady interactive
  // feed on a single slot; with aging it is promoted and jumps ahead of
  // fresh interactive arrivals (oldest seq wins at the promoted class).
  for (const bool aging : {false, true}) {
    const ServingEngine engine =
        make_engine(4096, 1, true, aging ? 1e-3 : 0.0);
    auto cache = engine.make_session_cache();
    EngineSession session(engine, cache);

    session.submit(make_request(100, 32, 2, PriorityClass::Batch, 9));
    std::vector<RequestResult> completed;
    for (std::uint64_t i = 0; i < 40; ++i) {
      session.submit(
          make_request(i, 32, 2, PriorityClass::Interactive, 1 + i % 3));
      const auto ev = session.step();
      completed.insert(completed.end(), ev.completed.begin(),
                       ev.completed.end());
    }
    const auto rest = session.drain();
    completed.insert(completed.end(), rest.begin(), rest.end());
    ASSERT_EQ(completed.size(), 41u);
    double batch_finish = -1.0;
    std::size_t served_interactive_before_batch = 0;
    for (const auto& r : completed) {
      if (r.id == 100)
        batch_finish = r.finish_time;
      else if (batch_finish < 0.0)
        ++served_interactive_before_batch;
    }
    ASSERT_GT(batch_finish, 0.0);
    if (aging)
      EXPECT_LT(served_interactive_before_batch, 10u)
          << "aging should promote the batch request past fresh arrivals";
    else
      EXPECT_GE(served_interactive_before_batch, 35u)
          << "without aging strict priority starves the batch request";
  }
}

TEST(EngineSessionPreemption, PreemptDuringDeferredAdmissionCountsOnce) {
  // Audit regression (PR 3 cancel_lookup interplay): while request D is
  // deferred for KV memory — its probe canceled every retry — preempting
  // and resuming the running victim around it must leave cache stats
  // exactly-once: one counted lookup per request, hit credits equal to
  // engine-side cached tokens, and a clean pin ledger.
  const ServingEngine engine = make_engine(8, 8, false);
  auto cache = engine.make_session_cache();
  EngineSession session(engine, cache);

  session.submit(make_request(1, 64, 32, PriorityClass::Standard, 1));
  session.step();
  ASSERT_EQ(session.num_running(), 1u);

  // D defers: pool is saturated by request 1.
  session.submit(make_request(2, 64, 8, PriorityClass::Standard, 2));
  session.step();
  session.step();
  ASSERT_EQ(session.num_pending(), 1u);

  // Preempt the victim mid-defer, then resume it; D admits in between.
  ASSERT_TRUE(session.preempt(1));
  session.step();  // D admits into the freed memory
  EXPECT_EQ(session.num_running(), 1u);
  ASSERT_TRUE(session.resume(1));
  const auto results = session.drain();
  ASSERT_EQ(results.size(), 2u);

  const EngineMetrics m = session.metrics();
  EXPECT_EQ(m.cache.lookups, 2u);  // one per request, across all retries
  EXPECT_EQ(m.cache.hit_tokens, m.cached_prompt_tokens);
  EXPECT_EQ(m.cache.lookup_tokens, 128u);
  EXPECT_EQ(m.prompt_tokens, 128u);
  EXPECT_EQ(m.output_tokens, 40u);
  EXPECT_EQ(cache.check_invariants(), "");
}

TEST(EngineSessionPreemption, RepeatedCyclesStayExactlyOnce) {
  // Arbitrary preempt/resume cycles: prompt/output/lookup counters never
  // drift, recompute accumulates, invariants hold after every cycle.
  const ServingEngine engine = make_engine(4096, 8, false);
  auto cache = engine.make_session_cache();
  EngineSession session(engine, cache);

  session.submit(make_request(5, 48, 32, PriorityClass::Batch, 4));
  session.step();
  for (int cycle = 0; cycle < 5; ++cycle) {
    ASSERT_TRUE(session.preempt(5));
    EXPECT_EQ(cache.check_invariants(), "");
    ASSERT_TRUE(session.resume(5));
    session.step();
  }
  const auto results = session.drain();
  ASSERT_EQ(results.size(), 1u);
  EXPECT_EQ(results[0].preemptions, 5u);
  EXPECT_EQ(results[0].output_tokens, 32u);
  EXPECT_EQ(results[0].prompt_tokens, 48u);
  EXPECT_EQ(results[0].cached_tokens + results[0].computed_tokens, 48u);

  const EngineMetrics m = session.metrics();
  EXPECT_EQ(m.prompt_tokens, 48u);
  EXPECT_EQ(m.output_tokens, 32u);
  EXPECT_EQ(m.preemptions, 5u);
  EXPECT_EQ(m.cache.lookups, 1u);
  EXPECT_EQ(m.recompute_prefill_tokens, results[0].recomputed_tokens);
  EXPECT_EQ(cache.check_invariants(), "");
}

TEST(EngineSessionPreemption, ResumedVictimKeepsFifoPositionInItsClass) {
  // Regression: the admission tie-break is seq, not queue position. A
  // preempted victim re-queues at the back of the deque, but being the
  // oldest of its class it must still admit before younger same-class
  // requests once the preemptor finishes.
  const ServingEngine engine = make_engine(4096, 1, /*preemption=*/true);
  auto cache = engine.make_session_cache();
  EngineSession session(engine, cache);

  session.submit(make_request(1, 32, 32, PriorityClass::Batch, 1));  // A
  session.step();  // A running
  session.submit(make_request(2, 32, 32, PriorityClass::Batch, 2));  // B
  session.submit(make_request(3, 32, 2, PriorityClass::Interactive, 3));
  const auto ev = session.step();  // C preempts A (pending: B, C->ran, A)
  EXPECT_EQ(ev.preempted, 1u);

  const auto results = session.drain();
  ASSERT_EQ(results.size(), 3u);
  EXPECT_EQ(results[0].id, 3u);  // interactive first
  EXPECT_EQ(results[1].id, 1u);  // the older victim resumes before B
  EXPECT_EQ(results[2].id, 2u);
}

TEST(EngineSessionPreemption, PreemptUnknownIdIsRejected) {
  const ServingEngine engine = make_engine(4096, 8, true);
  auto cache = engine.make_session_cache();
  EngineSession session(engine, cache);
  EXPECT_FALSE(session.preempt(99));
  EXPECT_FALSE(session.resume(99));
}

}  // namespace
}  // namespace llmq::llm
