// Exact pins on whole runs: prompt tokens, cached tokens, PHC and makespan
// of a Tenant-GGR fleet stream, an agent-session stream and one query per
// dataset, each recorded from the string-keyed planner and the
// render-then-tokenize prompt builder that the encoded view replaced. The
// serving goldens let PHR move by +-0.02, so a small drift in a plan or a
// prompt would pass them; it fails here.

#include <gtest/gtest.h>

#include <cstdint>
#include <string>
#include <vector>

#include "data/benchmark_suite.hpp"
#include "query/executor.hpp"
#include "serve/online.hpp"

namespace llmq {
namespace {

struct Pin {
  std::uint64_t prompt_tokens;
  std::uint64_t cached_tokens;
  double phc;
  double makespan;
};

void expect_pin(const Pin& got, const Pin& want) {
  EXPECT_EQ(got.prompt_tokens, want.prompt_tokens);
  EXPECT_EQ(got.cached_tokens, want.cached_tokens);
  EXPECT_EQ(got.phc, want.phc);
  EXPECT_EQ(got.makespan, want.makespan);
}

/// The movies-filter operator's table and prompt over `rows` movies rows.
struct MoviesStream {
  table::Table table;
  table::FdSet fds;
  serve::OnlineConfig config;
  double kv_fraction = 1.0;
};

MoviesStream movies_stream(std::size_t rows, std::uint64_t seed) {
  data::GenOptions g;
  g.n_rows = rows;
  g.seed = seed;
  const data::Dataset d = data::generate_dataset("movies", g);
  const data::QuerySpec& spec = data::query_by_id("movies-filter");
  MoviesStream s;
  s.table = spec.stage1.fields.empty() ? d.table
                                       : d.table.project(spec.stage1.fields);
  s.fds = d.fds;
  s.kv_fraction = static_cast<double>(rows) /
                  static_cast<double>(data::paper_rows("movies"));
  s.config.prompt.system_prompt = spec.system_prompt;
  s.config.prompt.user_prompt = spec.stage1.user_prompt;
  s.config.avg_output_tokens = spec.stage1.avg_output_tokens;
  s.config.ttft_slo_seconds = 2.0;
  return s;
}

Pin pin_of(const serve::OnlineRunResult& r) {
  return {r.engine.prompt_tokens, r.engine.cached_prompt_tokens, r.phc,
          r.latency.makespan};
}

TEST(ExactPins, TenantGgrFleetStream) {
  MoviesStream s = movies_stream(120, 5);
  s.config.scheduler.policy = serve::Policy::TenantGgr;
  s.config.scheduler.window_rows = 64;
  s.config.scheduler.max_wait_seconds = 4.0;
  s.config.n_replicas = 4;
  s.config.router = serve::RouterPolicy::PrefixAffinity;
  s.config.scale_kv_pool(s.kv_fraction / 4.0);
  serve::WorkloadOptions w;
  w.arrival_rate = 56.0;
  w.n_tenants = 8;
  w.tenant_skew = 1.0;
  w.n_requests = 8 * s.table.num_rows();
  w.seed = 5;
  const auto arrivals = serve::generate_arrivals(s.table.num_rows(), w);
  const serve::OnlineRunResult r =
      serve::run_online(s.table, s.fds, arrivals, s.config);
  ASSERT_EQ(r.requests.size(), arrivals.size());
  expect_pin(pin_of(r), {306376, 167616, 2989739, 17.713195920963106});
}

TEST(ExactPins, AgentSessionStream) {
  MoviesStream s = movies_stream(60, 7);
  s.config.scheduler.policy = serve::Policy::WindowedGgr;
  s.config.scheduler.window_rows = 16;
  s.config.scheduler.max_wait_seconds = 0.25;
  s.config.n_replicas = 2;
  s.config.router = serve::RouterPolicy::PrefixAffinity;
  s.config.scale_kv_pool(s.kv_fraction / 2.0);
  serve::WorkloadOptions w;
  w.arrival_rate = 1.5;
  w.n_tenants = 3;
  w.n_requests = 24;
  w.seed = 7;
  serve::SessionOptions so;
  so.kind = serve::SessionKind::Agent;
  so.turns = 4;
  so.mean_gap_seconds = 0.5;
  const serve::SessionWorkload sw =
      serve::generate_sessions(s.table.num_rows(), w, so);
  s.config.sessions = &sw;
  const serve::OnlineRunResult r =
      serve::run_online(s.table, s.fds, sw.roots, s.config);
  expect_pin(pin_of(r), {63076, 38048, 210916, 17.536812137513728});
}

/// One query per dataset at 80 rows, seed 11: the first suite query on
/// each dataset, except movies, whose multi-LLM query also runs stage 2
/// over a filtered table.
TEST(ExactPins, RunQueryPerDataset) {
  struct Case {
    const char* query;
    Pin want;
  };
  const std::vector<Case> cases = {
      {"movies-multi", {19379, 13280, 0, 6.9283559509827004}},
      {"products-filter", {32120, 23568, 1593891, 2.7937672625465124}},
      {"bird-filter", {51377, 37728, 12022179, 4.0190913436515636}},
      {"pdmx-filter", {75050, 33008, 1253246, 12.358578067674015}},
      {"beer-filter", {15104, 12496, 5384, 0.93487782750763337}},
      {"fever-rag", {113862, 106944, 27857518, 2.6687529847164426}},
      {"squad-rag", {87015, 68128, 11594576, 11.191909427590296}},
  };
  for (const Case& c : cases) {
    SCOPED_TRACE(c.query);
    const data::QuerySpec& spec = data::query_by_id(c.query);
    data::GenOptions g;
    g.n_rows = 80;
    g.seed = 11;
    const data::Dataset d = data::generate_dataset(spec.dataset, g);
    query::ExecConfig cfg = query::ExecConfig::standard(query::Method::CacheGgr);
    cfg.scale_kv_pool(80.0 / static_cast<double>(data::paper_rows(spec.dataset)));
    const query::QueryRunResult r = query::run_query(d, spec, cfg);
    Pin got{0, 0, 0.0, r.total_seconds};
    for (const query::StageMetrics& st : r.stages) {
      got.prompt_tokens += st.engine.prompt_tokens;
      got.cached_tokens += st.engine.cached_prompt_tokens;
    }
    // The planner's PHC over stage 1, through the executor's own prep.
    got.phc = query::prepare_stage(d.table, d.fds, spec, spec.stage1,
                                   d.truth_for(spec.stage1.truth_key),
                                   d.key_field, cfg)
                  .plan.planner_phc;
    expect_pin(got, c.want);
  }
}

}  // namespace
}  // namespace llmq
