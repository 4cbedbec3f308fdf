// Output-length predictor + SPJF scheduling properties.
//
//   * EWMA convergence — a constant per-tenant stream converges to the
//     true length and the error pad decays toward zero;
//   * penalty monotonicity — for a FIXED observation sequence, predictions
//     are non-decreasing in mispredict_penalty (the knob pads, never
//     flips);
//   * per-tenant isolation and the >= 1 token floor;
//   * FIFO fallback — spjf knobs with a disabled predictor are bit-exact
//     with spjf off (predicted_output_tokens == 0 means "no prediction");
//   * no starvation — under continuous short-predicted pressure with SPJF
//     admission, priority aging still promotes long-predicted requests:
//     their worst-case admission wait is strictly smaller than in the
//     same run without aging.

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <string>
#include <vector>

#include "serve/length_predictor.hpp"
#include "serve/online.hpp"
#include "util/rng.hpp"

namespace llmq::serve {
namespace {

TEST(LengthPredictor, ConvergesToAConstantStream) {
  LengthPredictorOptions opt;
  opt.enabled = true;
  LengthPredictor p(opt);

  EXPECT_DOUBLE_EQ(p.predict(0), 8.0);  // prior before any observation
  for (int i = 0; i < 64; ++i) p.observe(0, 20);
  EXPECT_NEAR(p.predict(0), 20.0, 1e-6);
  EXPECT_EQ(p.predict_tokens(0), 20u);
  EXPECT_EQ(p.observations(0), 64u);

  // The error pad also decays: with penalty the padded prediction
  // converges to the same limit.
  LengthPredictorOptions padded = opt;
  padded.mispredict_penalty = 2.0;
  LengthPredictor q(padded);
  for (int i = 0; i < 256; ++i) q.observe(7, 20);
  EXPECT_NEAR(q.predict(7), 20.0, 1e-3);
}

TEST(LengthPredictor, PenaltyIsMonotoneOnAFixedObservationSequence) {
  // Noisy sequence so the abs-err pad is genuinely positive.
  util::Rng rng(9);
  std::vector<std::size_t> seq;
  for (int i = 0; i < 200; ++i) seq.push_back(1 + rng.next_below(40));

  double prev = 0.0;
  for (const double penalty : {0.0, 0.25, 0.5, 1.0, 2.0, 4.0}) {
    LengthPredictorOptions opt;
    opt.enabled = true;
    opt.mispredict_penalty = penalty;
    LengthPredictor p(opt);
    for (std::size_t x : seq) p.observe(3, x);
    const double pred = p.predict(3);
    EXPECT_GE(pred, prev) << "penalty=" << penalty;
    prev = pred;
  }
  // And the pad is real: the largest penalty strictly exceeds the raw
  // mean for this noisy stream.
  LengthPredictorOptions raw;
  raw.enabled = true;
  LengthPredictor p0(raw);
  for (std::size_t x : seq) p0.observe(3, x);
  EXPECT_GT(prev, p0.predict(3));
}

TEST(LengthPredictor, TenantsAreIsolatedAndPredictionsAreFloored) {
  LengthPredictorOptions opt;
  opt.enabled = true;
  LengthPredictor p(opt);
  for (int i = 0; i < 32; ++i) p.observe(0, 100);
  EXPECT_EQ(p.observations(1), 0u);
  EXPECT_DOUBLE_EQ(p.predict(1), 8.0);  // the prior

  // A tenant generating empty outputs still predicts at least one token.
  for (int i = 0; i < 64; ++i) p.observe(2, 0);
  EXPECT_DOUBLE_EQ(p.predict(2), 1.0);
  EXPECT_EQ(p.predict_tokens(2), 1u);

  // Disabled predictor: integer channel reports "no prediction".
  LengthPredictor off{};
  EXPECT_FALSE(off.enabled());
  EXPECT_EQ(off.predict_tokens(0), 0u);
}

// ---------------------------------------------------------------------------
// End-to-end properties through run_online.

table::Table predictor_table(std::size_t n) {
  table::Table t(table::Schema::of_names({"item", "status"}));
  for (std::size_t r = 0; r < n; ++r)
    t.append_row({"item " + std::to_string(r),
                  r % 2 ? "active" : "archived"});
  return t;
}

OnlineConfig overload_config() {
  OnlineConfig cfg;
  cfg.prompt.system_prompt = "You are a serving assistant.";
  cfg.prompt.user_prompt = "Classify the row.";
  cfg.avg_output_tokens = 8.0;
  // Tenant parity picks the length group: even tenants short, odd long.
  cfg.tenant_output_multiplier = {0.25, 4.0};
  cfg.scheduler.policy = Policy::Fifo;
  cfg.scheduler.window_rows = 16;
  cfg.scheduler.max_wait_seconds = 0.25;
  cfg.scheduler.ggr.measure = core::LengthMeasure::Unit;
  cfg.engine.max_batch_size = 4;
  cfg.engine.kv_pool_blocks_override = 2048;
  return cfg;
}

std::vector<Arrival> overload_stream(std::size_t n_rows, std::size_t n) {
  WorkloadOptions w;
  w.arrival_rate = 200.0;  // far past capacity: a queue is always waiting
  w.n_tenants = 6;
  w.tenant_skew = 0.0;
  w.n_requests = n;
  w.seed = 77;
  return generate_arrivals(n_rows, w);
}

void expect_bit_identical(const OnlineRunResult& a, const OnlineRunResult& b) {
  ASSERT_EQ(a.requests.size(), b.requests.size());
  for (std::size_t i = 0; i < a.requests.size(); ++i) {
    EXPECT_EQ(a.requests[i].id, b.requests[i].id);
    EXPECT_DOUBLE_EQ(a.requests[i].admit_time, b.requests[i].admit_time);
    EXPECT_DOUBLE_EQ(a.requests[i].finish_time, b.requests[i].finish_time);
    EXPECT_EQ(a.requests[i].prompt_tokens, b.requests[i].prompt_tokens);
    EXPECT_EQ(a.requests[i].cached_tokens, b.requests[i].cached_tokens);
    EXPECT_EQ(a.requests[i].output_tokens, b.requests[i].output_tokens);
    EXPECT_EQ(a.requests[i].preemptions, b.requests[i].preemptions);
  }
  EXPECT_EQ(a.emitted.row_order(), b.emitted.row_order());
  EXPECT_DOUBLE_EQ(a.phc, b.phc);
  EXPECT_EQ(a.engine.cached_prompt_tokens, b.engine.cached_prompt_tokens);
}

TEST(LengthPredictorServing, DisabledPredictorMakesSpjfExactFifo) {
  const table::Table t = predictor_table(48);
  const table::FdSet fds;
  const auto arrivals = overload_stream(t.num_rows(), 96);

  OnlineConfig plain = overload_config();
  OnlineConfig spjf_off_predictor = overload_config();
  spjf_off_predictor.scheduler.spjf = true;
  spjf_off_predictor.engine.spjf = true;
  // predictor.enabled stays false: every request carries
  // predicted_output_tokens == 0 and both spjf paths must keep FIFO order.
  const auto a = run_online(t, fds, arrivals, plain);
  const auto b = run_online(t, fds, arrivals, spjf_off_predictor);
  expect_bit_identical(a, b);
}

TEST(LengthPredictorServing, SpjfReordersButConservesCompletions) {
  const table::Table t = predictor_table(48);
  const table::FdSet fds;
  const auto arrivals = overload_stream(t.num_rows(), 96);

  OnlineConfig fifo = overload_config();
  OnlineConfig spjf = overload_config();
  spjf.predictor.enabled = true;
  spjf.scheduler.spjf = true;
  spjf.engine.spjf = true;

  const auto a = run_online(t, fds, arrivals, fifo);
  const auto b = run_online(t, fds, arrivals, spjf);
  ASSERT_EQ(a.requests.size(), arrivals.size());
  ASSERT_EQ(b.requests.size(), arrivals.size());

  // Same multiset of ids, and deterministic on rerun.
  auto ids = [](const OnlineRunResult& r) {
    std::vector<std::uint64_t> v;
    for (const ServedRequest& sr : r.requests) v.push_back(sr.id);
    std::sort(v.begin(), v.end());
    return v;
  };
  EXPECT_EQ(ids(a), ids(b));
  expect_bit_identical(b, run_online(t, fds, arrivals, spjf));

  // The reorder is real under overload: short-predicted (even) tenants'
  // mean admission wait improves over FIFO.
  auto mean_wait = [](const OnlineRunResult& r, bool short_group) {
    double sum = 0.0;
    std::size_t n = 0;
    for (const ServedRequest& sr : r.requests) {
      if ((sr.tenant % 2 == 0) != short_group) continue;
      sum += sr.admit_time - sr.arrival_time;
      ++n;
    }
    return sum / static_cast<double>(n);
  };
  EXPECT_LT(mean_wait(b, true), mean_wait(a, true));
}

TEST(LengthPredictorServing, AgingPromotesLongPredictedUnderSpjfPressure) {
  const table::Table t = predictor_table(48);
  const table::FdSet fds;
  const auto arrivals = overload_stream(t.num_rows(), 96);

  OnlineConfig starved = overload_config();
  starved.predictor.enabled = true;
  starved.scheduler.spjf = true;
  starved.engine.spjf = true;

  OnlineConfig aged = starved;
  aged.engine.priority_aging_seconds = 0.5;
  aged.scheduler.aging_seconds = 0.5;

  const auto without = run_online(t, fds, arrivals, starved);
  const auto with = run_online(t, fds, arrivals, aged);
  ASSERT_EQ(without.requests.size(), arrivals.size());
  ASSERT_EQ(with.requests.size(), arrivals.size());

  // Worst-case admission wait of the long-predicted (odd-tenant) group:
  // aging promotes waiters past fresh short-predicted arrivals, so the
  // tail wait strictly shrinks versus pure SPJF.
  auto max_long_wait = [](const OnlineRunResult& r) {
    double worst = 0.0;
    for (const ServedRequest& sr : r.requests)
      if (sr.tenant % 2 == 1)
        worst = std::max(worst, sr.admit_time - sr.arrival_time);
    return worst;
  };
  EXPECT_LT(max_long_wait(with), max_long_wait(without));
}

}  // namespace
}  // namespace llmq::serve
