#include "workloads.hpp"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <deque>
#include <optional>
#include <sstream>
#include <stdexcept>
#include <unordered_map>

#include "cache/prefix_cache.hpp"
#include "core/ggr.hpp"
#include "data/benchmark_suite.hpp"
#include "data/generators.hpp"
#include "llm/cost_model.hpp"
#include "llm/engine.hpp"
#include "llm/task_model.hpp"
#include "obs/audit.hpp"
#include "obs/trace.hpp"
#include "pricing/cost_report.hpp"
#include "pricing/price_sheet.hpp"
#include "query/executor.hpp"
#include "query/llm_operator.hpp"
#include "serve/online.hpp"
#include "serve/online_driver.hpp"
#include "serve/query_client.hpp"
#include "serve/threaded_fleet.hpp"

namespace perfbench {

using namespace llmq;

namespace {

using Clock = std::chrono::steady_clock;

double seconds_since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

double ratio(double num, double den) { return den > 0.0 ? num / den : 0.0; }

// ---------------------------------------------------------------------------
// Shared helpers.

class Fnv {
 public:
  void add(const void* data, std::size_t n) {
    const auto* p = static_cast<const unsigned char*>(data);
    for (std::size_t i = 0; i < n; ++i) {
      h_ ^= p[i];
      h_ *= 1099511628211ull;
    }
  }
  void add(const std::string& s) {
    add(s.data(), s.size());
    add_u64(s.size());
  }
  void add_u64(std::uint64_t v) { add(&v, sizeof v); }
  void add_f64(double v) { add(&v, sizeof v); }
  std::uint64_t value() const { return h_; }

 private:
  std::uint64_t h_ = 1469598103934665603ull;
};

void digest_query(Fnv& h, const query::QueryRunResult& r) {
  for (const std::string& a : r.answers) h.add(a);
  h.add_u64(r.rows_selected);
  h.add_f64(r.aggregate);
}

/// Conservation on one engine ledger: every prompt token is either cached
/// or computed.
bool tokens_conserved(const llm::EngineMetrics& m) {
  return m.cached_prompt_tokens + m.computed_prompt_tokens == m.prompt_tokens;
}

SimMetrics sim_of(const serve::OnlineRunResult& r) {
  SimMetrics s;
  s.jct_s = r.latency.makespan;
  s.phr = r.engine.prompt_cache_hit_rate();
  s.ttft_p50_s = r.latency.p50_ttft;
  s.ttft_p99_s = r.latency.p99_ttft;
  s.ttft_count = r.latency.count;
  s.itl_p99_s = r.latency.p99_itl;
  s.goodput_rps = r.latency.goodput_rps;
  s.phc = r.phc;
  s.prompt_tokens = r.engine.prompt_tokens;
  s.cached_tokens = r.engine.cached_prompt_tokens;
  s.output_tokens = r.engine.output_tokens;
  return s;
}

RunOutcome outcome_of(const serve::OnlineRunResult& r,
                      std::uint64_t submitted) {
  RunOutcome o;
  o.sim = sim_of(r);
  o.submitted = submitted;
  o.invocations = r.requests.size();
  if (o.invocations != submitted) {
    o.failed += submitted > o.invocations ? submitted - o.invocations
                                          : o.invocations - submitted;
    o.errors.push_back("completions " + std::to_string(o.invocations) +
                       " != submissions " + std::to_string(submitted));
  }
  if (!tokens_conserved(r.engine)) {
    o.failed = std::max<std::uint64_t>(o.failed, o.invocations);
    o.errors.push_back("cached + computed != prompt tokens");
  }
  return o;
}

/// Engine and cache counts shared by every workload's per-layer report.
void engine_layers(const llm::EngineMetrics& m, std::uint64_t requests,
                   Values& layer) {
  layer["llm.decode_steps"] = static_cast<double>(m.decode_steps);
  layer["llm.mean_batch"] = m.mean_batch_size();
  layer["llm.preemptions"] = static_cast<double>(m.preemptions);
  layer["llm.prefill_chunks"] = static_cast<double>(m.prefill_chunks);
  layer["llm.recompute_frac"] =
      ratio(static_cast<double>(m.recompute_prefill_tokens),
            static_cast<double>(m.computed_prompt_tokens +
                                m.recompute_prefill_tokens));
  const cache::CacheStats& c = m.cache;
  layer["cache.lookups"] = static_cast<double>(c.lookups);
  layer["cache.hit_rate"] = c.hit_rate();
  layer["cache.inserted_blocks"] = static_cast<double>(c.inserted_blocks);
  layer["cache.evicted_blocks"] = static_cast<double>(c.evicted_blocks);
  layer["cache.demoted_blocks"] = static_cast<double>(c.demoted_blocks);
  layer["cache.promoted_blocks"] = static_cast<double>(c.promoted_blocks);
  layer["cache.promote_per_demote"] =
      ratio(static_cast<double>(c.promoted_blocks),
            static_cast<double>(c.demoted_blocks));
  layer["query.prompt_tokens_per_req"] =
      ratio(static_cast<double>(m.prompt_tokens),
            static_cast<double>(requests));
}

void add_ggr(Values& layer, const core::GgrCounters& c, std::size_t calls) {
  layer["core.plan_calls"] += static_cast<double>(calls);
  layer["core.ggr_nodes"] += static_cast<double>(c.recursion_nodes);
  layer["core.ggr_groups_scored"] += static_cast<double>(c.groups_scored);
  layer["core.ggr_fallbacks"] += static_cast<double>(c.fallbacks);
}

/// A dispatched prompt stream replayed through standalone prefix caches
/// (lookup -> admit -> release), one cache per replica. A segment starts
/// from cold caches.
struct ReplaySegment {
  cache::CacheConfig config;
  std::size_t caches = 1;
  std::vector<tokenizer::TokenSeq> prompts;
  std::vector<std::uint32_t> cache_of;  // parallel to prompts
};

void replay(const std::vector<ReplaySegment>& segments, Values& layer) {
  std::uint64_t lookups = 0;
  const auto t0 = Clock::now();
  for (const ReplaySegment& seg : segments) {
    std::vector<cache::PrefixCache> caches;
    caches.reserve(seg.caches);
    for (std::size_t i = 0; i < seg.caches; ++i)
      caches.emplace_back(seg.config);
    for (std::size_t i = 0; i < seg.prompts.size(); ++i) {
      cache::PrefixCache& c = caches[seg.cache_of[i]];
      cache::CacheLease lease = c.lookup(seg.prompts[i]);
      c.admit(seg.prompts[i], lease);
      c.release(lease);
    }
    lookups += seg.prompts.size();
  }
  const double s = seconds_since(t0);
  layer["cache.replay_s"] = s;
  layer["cache.replay_us_per_lookup"] =
      ratio(s * 1e6, static_cast<double>(lookups));
}

/// Replica cache configuration as a standalone cache: the engine's KV pool
/// becomes the GPU-tier capacity.
cache::CacheConfig replica_cache_config(const llm::ModelSpec& model,
                                        const llm::GpuSpec& gpu,
                                        const llm::EngineConfig& ec) {
  const llm::ServingEngine engine(llm::CostModel(model, gpu), ec);
  cache::CacheConfig cc;
  cc.block_size = ec.block_size;
  cc.capacity_blocks = engine.kv_pool_blocks();
  cc.enabled = ec.cache_enabled;
  cc.tiers = ec.cache_tiers;
  cc.host_capacity_blocks = ec.host_capacity_blocks;
  cc.disk_capacity_blocks = ec.disk_capacity_blocks;
  return cc;
}

/// Counts RouteDecision events whose chosen replica already held a prefix.
class RouteCounter final : public obs::TraceSink {
 public:
  void emit(const obs::TraceEvent& e) override {
    if (e.kind != obs::EventKind::RouteDecision) return;
    ++routed;
    if (e.b > 0) ++affine;
  }
  std::uint64_t routed = 0;
  std::uint64_t affine = 0;
};

// ---------------------------------------------------------------------------
// Offline query composition: run_query's calls, spanned.

struct ComposedQuery {
  query::QueryRunResult result;
  std::vector<std::vector<llm::Request>> streams;  // per stage, as submitted
  std::vector<bool> stream_warm;  // stage reuses the previous stage's cache
  core::GgrCounters ggr;
  std::size_t plan_calls = 0;
  double planner_phc = 0.0;
  std::uint64_t requests = 0;
  std::uint64_t results = 0;
};

ComposedQuery compose_query(const data::Dataset& d, const data::QuerySpec& spec,
                            const query::ExecConfig& config, SpanRecorder* rec,
                            std::uint64_t qid) {
  ComposedQuery out;
  out.result.query_id = spec.id;
  llm::EngineConfig ec = config.engine;
  ec.cache_enabled = config.cache_enabled;
  const llm::CostModel cost(config.model, config.gpu);

  std::optional<cache::PrefixCache> session;
  if (spec.type == data::QueryType::MultiLlm)
    session.emplace(llm::ServingEngine(cost, ec).make_session_cache());

  const auto stage = [&](const table::Table& t, const data::StageSpec& st,
                         const std::vector<std::string>& truth) {
    table::Table tab;
    {
      Scoped s(rec, "query.project", qid);
      tab = st.fields.empty() ? t : t.project(st.fields);
    }
    core::GgrResult plan;
    {
      Scoped s(rec, "core.plan", qid);
      plan = core::ggr(tab, d.fds, config.planner.ggr);
    }
    query::OperatorOutput ops;
    {
      Scoped s(rec, "query.build", qid);
      query::LlmOperatorSpec op;
      op.tmpl.system_prompt = spec.system_prompt;
      op.tmpl.user_prompt = st.user_prompt;
      op.avg_output_tokens = st.avg_output_tokens;
      op.answers = st.answers;
      op.key_field = d.key_field;
      op.position_sensitivity = spec.position_sensitivity;
      const llm::TaskModel task_model(config.model_profile);
      ops = query::build_requests(tab, plan.ordering, op, task_model, truth);
    }
    llm::BatchRunResult run;
    {
      Scoped s(rec, "llm.run", qid);
      llm::ServingEngine engine(cost, ec);
      run = session ? engine.run(ops.requests, *session)
                    : engine.run(ops.requests);
    }
    query::StageMetrics m;
    m.engine = run.metrics;
    m.solver_seconds = plan.solve_seconds;
    m.rows = tab.num_rows();
    m.token_phr = run.metrics.prompt_cache_hit_rate();
    out.result.total_seconds += m.engine.total_seconds;
    out.result.solver_seconds += m.solver_seconds;
    out.result.stages.push_back(m);
    out.ggr.recursion_nodes += plan.counters.recursion_nodes;
    out.ggr.groups_scored += plan.counters.groups_scored;
    out.ggr.fallbacks += plan.counters.fallbacks;
    ++out.plan_calls;
    out.planner_phc += plan.phc;
    out.requests += ops.requests.size();
    out.results += run.results.size();
    out.stream_warm.push_back(session.has_value() && !out.streams.empty());
    out.streams.push_back(std::move(ops.requests));
    return std::move(ops.answers);
  };

  std::vector<std::string> answers =
      stage(d.table, spec.stage1, d.truth_for(spec.stage1.truth_key));
  out.result.answers = answers;
  std::vector<std::size_t> selected;
  {
    Scoped s(rec, "query.epilogue", qid);
    selected = query::stage1_epilogue(out.result, spec, d, answers);
  }
  if (!selected.empty() && spec.stage2) {
    query::Stage2Input in2;
    {
      Scoped s(rec, "query.epilogue", qid);
      in2 = query::make_stage2_input(d, *spec.stage2, selected);
    }
    stage(in2.table, *spec.stage2, in2.truth);
  }
  return out;
}

std::size_t scaled_rows(const std::string& key, double scale) {
  const std::size_t full = data::paper_rows(key);
  const auto n = static_cast<std::size_t>(static_cast<double>(full) * scale);
  return std::max<std::size_t>(50, std::min(n, full));
}

data::Dataset generate(const std::string& key, std::size_t rows,
                       std::uint64_t seed, SpanRecorder* rec) {
  Scoped s(rec, "data.generate");
  data::GenOptions g;
  g.n_rows = rows;
  g.seed = seed;
  return data::generate_dataset(key, g);
}

// ---------------------------------------------------------------------------
// batch_suite: the paper's 16 queries, offline, closed loop.

class BatchSuite final : public Workload {
 public:
  void setup(std::uint64_t seed, Size size, SpanRecorder* rec) override {
    scale_ = size == Size::Tiny ? 0.004 : 0.03;
    seed_ = seed;
    datasets_.clear();
    configs_.clear();
    for (const std::string& key : data::dataset_keys()) {
      const std::size_t rows = scaled_rows(key, scale_);
      datasets_.emplace(key, generate(key, rows, seed, rec));
      query::ExecConfig cfg =
          query::ExecConfig::standard(query::Method::CacheGgr);
      cfg.scale_kv_pool(static_cast<double>(rows) /
                        static_cast<double>(data::paper_rows(key)));
      configs_.emplace(key, cfg);
    }
  }

  std::string describe() const override {
    std::ostringstream os;
    os << "closed loop, 1 caller, 16 queries back to back over 7 datasets at "
       << scale_ << " of paper rows (";
    bool first = true;
    for (const auto& [key, d] : datasets_) {
      os << (first ? "" : ", ") << key << " " << d.table.num_rows();
      first = false;
    }
    os << "), KV pool scaled with the data, seed " << seed_;
    return os.str();
  }

  RunOutcome run() override {
    RunOutcome o;
    Fnv h;
    std::uint64_t cached = 0, prompt = 0, output = 0;
    for (const data::QuerySpec& spec : data::benchmark_queries()) {
      const data::Dataset& d = datasets_.at(spec.dataset);
      const query::QueryRunResult r =
          query::run_query(d, spec, configs_.at(spec.dataset));
      o.sim.jct_s += r.total_seconds;
      digest_query(h, r);
      for (const query::StageMetrics& st : r.stages) {
        o.invocations += st.rows;
        cached += st.engine.cached_prompt_tokens;
        prompt += st.engine.prompt_tokens;
        output += st.engine.output_tokens;
        if (!tokens_conserved(st.engine)) {
          o.failed += st.rows;
          o.errors.push_back(spec.id + ": cached + computed != prompt");
        }
      }
    }
    // run_query reports one invocation per stage row and does not expose
    // its engine's completions, so completions == submissions is checked
    // only in the composed run (which checks the digest equal to this one).
    o.submitted = o.invocations;
    finish(o, h, cached, prompt, output);
    return o;
  }

  RunOutcome run_composed(SpanRecorder* rec) override {
    return composed(rec, nullptr);
  }

  RunOutcome run_capture(Values& layer) override {
    RunOutcome o = composed(nullptr, &layer);
    std::vector<ReplaySegment> segments;
    const auto& specs = data::benchmark_queries();
    for (std::size_t i = 0; i < last_.size(); ++i) {
      const ComposedQuery& q = last_[i];
      const query::ExecConfig& cfg = configs_.at(specs[i].dataset);
      llm::EngineConfig ec = cfg.engine;
      ec.cache_enabled = cfg.cache_enabled;
      for (std::size_t s = 0; s < q.streams.size(); ++s) {
        if (!q.stream_warm[s] || segments.empty()) segments.emplace_back();
        ReplaySegment& seg = segments.back();
        seg.config = replica_cache_config(cfg.model, cfg.gpu, ec);
        for (const llm::Request& r : q.streams[s]) {
          seg.prompts.push_back(r.prompt);
          seg.cache_of.push_back(0);
        }
      }
    }
    replay(segments, layer);
    return o;
  }

  CheckResult checks(const RunOutcome&, double, Values&) override {
    // The paper's API-cost claim: the suite's request stream, in
    // submission order, priced under OpenAI-style automatic prefix caching.
    CheckResult c;
    std::vector<pricing::PricedRequest> stream;
    for (const ComposedQuery& q : last_)
      for (const auto& st : q.streams)
        for (const llm::Request& r : st)
          stream.push_back({r.prompt, r.output_tokens});
    cost_usd_ =
        pricing::price_stream_auto(pricing::openai_gpt4o_mini(), stream)
            .cost_usd;
    c.attempted = stream.size();
    if (!(cost_usd_ > 0.0) || !std::isfinite(cost_usd_)) {
      c.failed = stream.size();
      c.errors.push_back("priced stream cost is not a positive number");
    } else {
      c.passed.push_back("cost priced over " + std::to_string(stream.size()) +
                         " invocations");
    }
    return c;
  }

  Values sim_report(const SimMetrics& s) const override {
    return {{"sim_jct_s", s.jct_s},
            {"sim_phr", s.phr},
            {"sim_cost_usd", cost_usd_}};
  }

 private:
  static void finish(RunOutcome& o, const Fnv& h, std::uint64_t cached,
                     std::uint64_t prompt, std::uint64_t output) {
    o.sim.answer_digest = h.value();
    o.sim.cached_tokens = cached;
    o.sim.prompt_tokens = prompt;
    o.sim.output_tokens = output;
    o.sim.phr = ratio(static_cast<double>(cached), static_cast<double>(prompt));
  }

  RunOutcome composed(SpanRecorder* rec, Values* layer) {
    RunOutcome o;
    Fnv h;
    std::uint64_t cached = 0, prompt = 0, output = 0;
    last_.clear();
    llm::EngineMetrics agg;
    std::uint64_t qid = 0;
    for (const data::QuerySpec& spec : data::benchmark_queries()) {
      const data::Dataset& d = datasets_.at(spec.dataset);
      ComposedQuery q =
          compose_query(d, spec, configs_.at(spec.dataset), rec, qid++);
      o.sim.jct_s += q.result.total_seconds;
      digest_query(h, q.result);
      o.submitted += q.requests;
      o.invocations += q.results;
      if (q.results != q.requests) {
        o.failed += q.requests > q.results ? q.requests - q.results
                                           : q.results - q.requests;
        o.errors.push_back(spec.id + ": completions != submissions");
      }
      for (const query::StageMetrics& st : q.result.stages) {
        cached += st.engine.cached_prompt_tokens;
        prompt += st.engine.prompt_tokens;
        output += st.engine.output_tokens;
        if (!tokens_conserved(st.engine)) {
          o.failed += st.rows;
          o.errors.push_back(spec.id + ": cached + computed != prompt");
        }
        if (layer) accumulate(agg, st.engine);
      }
      if (layer) {
        add_ggr(*layer, q.ggr, q.plan_calls);
        (*layer)["core.planner_phc"] += q.planner_phc;
      }
      last_.push_back(std::move(q));
    }
    finish(o, h, cached, prompt, output);
    if (layer) engine_layers(agg, o.invocations, *layer);
    return o;
  }

  static void accumulate(llm::EngineMetrics& a, const llm::EngineMetrics& m) {
    a.prompt_tokens += m.prompt_tokens;
    a.cached_prompt_tokens += m.cached_prompt_tokens;
    a.computed_prompt_tokens += m.computed_prompt_tokens;
    a.output_tokens += m.output_tokens;
    a.decode_steps += m.decode_steps;
    a.sum_batch_size += m.sum_batch_size;
    a.preemptions += m.preemptions;
    a.recompute_prefill_tokens += m.recompute_prefill_tokens;
    a.prefill_chunks += m.prefill_chunks;
    a.cache += m.cache;
  }

  double scale_ = 0.03;
  std::uint64_t seed_ = 0;
  std::map<std::string, data::Dataset> datasets_;
  std::map<std::string, query::ExecConfig> configs_;
  std::vector<ComposedQuery> last_;  // the last composed run's streams
  double cost_usd_ = 0.0;
};

// ---------------------------------------------------------------------------
// Online workloads: run_online vs the replicated loop composed from the
// scheduler, encoder, fleet and session-tracker calls.

struct OnlineCapture {
  RouteCounter routes;
  std::vector<std::vector<serve::Arrival>> window_batches;  // pre-plan order
  std::vector<tokenizer::TokenSeq> prompts;                 // dispatch order
  std::vector<std::uint32_t> replica_of;
  std::uint64_t steps = 0;
  std::uint64_t turns_spawned = 0;
};

/// serve::run_online_replicated's loop, call for call, with a span around
/// each layer call. `cap` (untimed runs only) records counts and the
/// dispatched prompt stream.
serve::OnlineRunResult composed_online(
    const table::Table& t, const table::FdSet& fds,
    const std::vector<serve::Arrival>& arrivals,
    const serve::OnlineConfig& config, SpanRecorder* rec,
    OnlineCapture* cap) {
  using namespace serve;
  using namespace serve::detail;
  OnlineRunResult out;
  out.replicas.resize(config.n_replicas);
  out.per_class = summarize_by_class({}, config.ttft_slo_seconds);
  if (arrivals.empty()) return out;

  validate_sessions(config, arrivals);
  auto index_of = index_arrivals(t, arrivals);

  OnlineScheduler scheduler(t, fds, config.scheduler);
  ReplicaFleet fleet(config.fleet());
  if (cap) fleet.set_trace(&cap->routes);
  const llm::TaskModel task_model(config.model_profile);
  EncoderMap encoders(config.prompt);
  LengthPredictor predictor(config.predictor);
  scheduler.set_predictor(&predictor);
  SessionTracker tracker(config.sessions);
  ArrivalFeed feed(arrivals);
  std::vector<Arrival> spawned;
  std::deque<Arrival> shadow;  // scheduler buffer mirror (capture only)

  std::unordered_map<std::uint64_t, InFlight> inflight;
  std::vector<std::size_t> emitted_rows;
  std::vector<std::vector<std::size_t>> emitted_fields;
  emitted_rows.reserve(arrivals.size());
  emitted_fields.reserve(arrivals.size());
  double now = 0.0;

  const auto dispatch = [&](const Window& w) {
    ++out.windows;
    out.solve_seconds += w.solve_seconds;
    if (cap) {
      const auto end = shadow.begin() + static_cast<long>(w.arrivals.size());
      cap->window_batches.emplace_back(shadow.begin(), end);
      shadow.erase(shadow.begin(), end);
    }
    for (std::size_t i = 0; i < w.arrivals.size(); ++i) {
      const Arrival& a = w.arrivals[i];
      const std::vector<std::size_t>& fo = w.field_orders[i];
      llm::Request req;
      if (a.turn > 0) {
        tokenizer::TokenSeq prompt;
        {
          Scoped s(rec, "serve.sessions", a.id);
          prompt = tracker.make_child_prompt(a, t, fo);
        }
        Scoped s(rec, "query.build", a.id);
        req = make_request(a, std::move(prompt), task_model, config,
                           &predictor);
      } else {
        Scoped s(rec, "query.build", a.id);
        req = make_request(a,
                           encoders.for_tenant(a.tenant).encode(t, a.row, fo),
                           task_model, config, &predictor);
      }
      {
        Scoped s(rec, "serve.sessions", a.id);
        tracker.on_dispatch(a, req.prompt);
      }
      if (cap) cap->prompts.push_back(req.prompt);
      std::size_t target = 0;
      {
        Scoped s(rec, "serve.fleet.dispatch", a.id);
        target = fleet.dispatch(std::move(req), a.tenant, now);
      }
      if (cap) cap->replica_of.push_back(static_cast<std::uint32_t>(target));
      inflight.emplace(a.id, InFlight{a, w.planned_at, target});
      emitted_rows.push_back(index_of.at(a.id));
      emitted_fields.push_back(fo);
    }
  };

  const auto record = [&](const llm::RequestResult& res) {
    Scoped s(rec, "serve.record", res.id);
    const InFlight& f = inflight.at(res.id);
    ServedRequest sr = stitch(res, f);
    count_tenant(out.per_tenant, sr.tenant);
    out.requests.push_back(sr);
    if (predictor.enabled())
      predictor.observe(f.arrival.tenant, res.output_tokens);
    std::optional<Arrival> child;
    {
      Scoped c(rec, "serve.sessions", res.id);
      child = tracker.on_complete(f.arrival, res);
      if (child) feed.push_feedback(*child);
    }
    if (child) {
      index_of.emplace(child->id, arrivals.size() + spawned.size());
      spawned.push_back(*child);
    }
    inflight.erase(res.id);
  };

  const auto pop = [&](bool drain) {
    std::optional<Window> w;
    {
      Scoped s(rec, "serve.scheduler.pop");
      w = drain ? scheduler.flush(now) : scheduler.pop_ready(now);
      if (rec && w && w->solve_seconds > 0.0)
        rec->add_measured_child("core.plan", w->solve_seconds, kNoId);
    }
    return w;
  };

  while (!feed.exhausted() || scheduler.buffered() > 0 || fleet.any_work()) {
    now = fleet.frontier(now);
    if (!feed.exhausted() && feed.next_time() <= now) {
      Scoped s(rec, "serve.feed");
      while (!feed.exhausted() && feed.next_time() <= now) {
        const Arrival a = feed.pop();
        scheduler.push(a);
        if (cap) shadow.push_back(a);
      }
    }
    while (scheduler.ready(now)) dispatch(*pop(false));
    if (fleet.any_work()) {
      ReplicaFleet::StepResult st;
      {
        Scoped s(rec, "serve.fleet.step");
        st = fleet.step();
      }
      if (cap) ++cap->steps;
      for (const llm::RequestResult& res : st.completed) record(res);
      continue;
    }
    const double t_next = std::min(scheduler.next_deadline(), feed.next_time());
    if (std::isfinite(t_next)) {
      now = std::max(now, t_next);
    } else if (scheduler.buffered() > 0) {
      dispatch(*pop(true));
    } else {
      break;
    }
  }

  Scoped s(rec, "serve.finalize");
  out.replicas = fleet.replica_metrics();
  out.engine = aggregate_replica_engines(out.replicas);
  out.load_imbalance = fleet.load_imbalance();
  if (cap) cap->turns_spawned = spawned.size();
  if (spawned.empty()) {
    finalize_emitted(out, t, arrivals, config, std::move(emitted_rows),
                     std::move(emitted_fields));
  } else {
    std::vector<Arrival> all = arrivals;
    all.insert(all.end(), spawned.begin(), spawned.end());
    finalize_emitted(out, t, all, config, std::move(emitted_rows),
                     std::move(emitted_fields));
  }
  return out;
}

/// Re-plan each captured window exactly as OnlineScheduler::plan_into does
/// for the GGR policies (priority_order and spjf off) to count the
/// planner's work, which the scheduler does not expose.
void replay_planner(const table::Table& t, const table::FdSet& fds,
                    const serve::SchedulerOptions& opt,
                    const std::vector<std::vector<serve::Arrival>>& batches,
                    Values& layer) {
  if (opt.priority_order || opt.spjf)
    throw std::logic_error("replay_planner: priority_order/spjf not mirrored");
  if (opt.policy == serve::Policy::Fifo) return;
  const auto plan = [&](const std::vector<std::size_t>& rows) {
    add_ggr(layer, core::ggr(t.take_rows(rows), fds, opt.ggr).counters, 1);
  };
  for (const auto& batch : batches) {
    if (opt.policy == serve::Policy::WindowedGgr) {
      std::vector<std::size_t> rows;
      for (const serve::Arrival& a : batch) rows.push_back(a.row);
      plan(rows);
      continue;
    }
    std::vector<std::uint32_t> order;
    std::unordered_map<std::uint32_t, std::vector<std::size_t>> groups;
    for (const serve::Arrival& a : batch) {
      auto [it, inserted] = groups.try_emplace(a.tenant);
      if (inserted) order.push_back(a.tenant);
      it->second.push_back(a.row);
    }
    for (std::uint32_t tenant : order) plan(groups[tenant]);
  }
}

class OnlineWorkload : public Workload {
 public:
  RunOutcome run() override {
    return outcome_of(serve::run_online(table_, fds_, arrivals(), config_),
                      submissions_);
  }

  RunOutcome run_composed(SpanRecorder* rec) override {
    return outcome_of(
        composed_online(table_, fds_, arrivals(), config_, rec, nullptr),
        submissions_);
  }

  RunOutcome run_capture(Values& layer) override {
    OnlineCapture cap;
    const serve::OnlineRunResult r =
        composed_online(table_, fds_, arrivals(), config_, nullptr, &cap);
    engine_layers(r.engine, r.requests.size(), layer);
    layer["serve.scheduler.windows"] = static_cast<double>(r.windows);
    std::size_t rows = 0;
    for (const auto& b : cap.window_batches) rows += b.size();
    layer["serve.scheduler.mean_window_rows"] =
        ratio(static_cast<double>(rows), static_cast<double>(r.windows));
    layer["serve.scheduler.queue_delay_p99_s"] = r.latency.p99_queue_delay;
    layer["serve.router.affinity_frac"] =
        ratio(static_cast<double>(cap.routes.affine),
              static_cast<double>(cap.routes.routed));
    layer["serve.router.load_imbalance"] = r.load_imbalance;
    layer["serve.fleet.steps"] = static_cast<double>(cap.steps);
    layer["serve.sessions.turns_spawned"] =
        static_cast<double>(cap.turns_spawned);
    replay_planner(table_, fds_, config_.scheduler, cap.window_batches, layer);

    ReplaySegment seg;
    seg.config = replica_cache_config(config_.model, config_.gpu,
                                      config_.engine);
    seg.caches = config_.n_replicas;
    seg.prompts = std::move(cap.prompts);
    seg.cache_of = std::move(cap.replica_of);
    replay({seg}, layer);
    return outcome_of(r, submissions_);
  }

  Values sim_report(const SimMetrics& s) const override {
    return {{"sim_jct_s", s.jct_s},
            {"sim_phr", s.phr},
            {"sim_ttft_p50_s", s.ttft_p50_s},
            {"sim_ttft_p99_s", s.ttft_p99_s},
            {"sim_ttft_count", static_cast<double>(s.ttft_count)},
            {"sim_itl_p99_s", s.itl_p99_s},
            {"sim_goodput_rps", s.goodput_rps}};
  }

 protected:
  virtual const std::vector<serve::Arrival>& arrivals() const = 0;

  /// Movies rows projected to the movies-filter operator's fields, with
  /// that query's prompt: the table every online workload serves.
  void movies_filter_table(std::size_t rows, std::uint64_t seed,
                           SpanRecorder* rec) {
    data::Dataset d = generate("movies", rows, seed, rec);
    const data::QuerySpec& spec = data::query_by_id("movies-filter");
    table_ = spec.stage1.fields.empty() ? d.table
                                        : d.table.project(spec.stage1.fields);
    fds_ = d.fds;
    kv_fraction_ = static_cast<double>(table_.num_rows()) /
                   static_cast<double>(data::paper_rows("movies"));
    config_ = serve::OnlineConfig{};
    config_.prompt.system_prompt = spec.system_prompt;
    config_.prompt.user_prompt = spec.stage1.user_prompt;
  }

  table::Table table_;
  table::FdSet fds_;
  serve::OnlineConfig config_;
  double kv_fraction_ = 1.0;
  std::uint64_t submissions_ = 0;
  std::uint64_t seed_ = 0;
};

// stream_fleet: open-loop Poisson one-shot stream, read-heavy prefix reuse.
class StreamFleet final : public OnlineWorkload {
 public:
  void setup(std::uint64_t seed, Size size, SpanRecorder* rec) override {
    seed_ = seed;
    movies_filter_table(size == Size::Tiny ? 100 : 1500, seed, rec);
    config_.avg_output_tokens = data::query_by_id("movies-filter")
                                    .stage1.avg_output_tokens;
    config_.ttft_slo_seconds = 2.0;
    config_.scheduler.policy = serve::Policy::TenantGgr;
    config_.scheduler.window_rows = 64;
    config_.scheduler.max_wait_seconds = 4.0;
    config_.n_replicas = 4;
    config_.router = serve::RouterPolicy::PrefixAffinity;
    config_.scale_kv_pool(kv_fraction_ / 4.0);

    serve::WorkloadOptions w;
    w.arrival_rate = kRate;
    w.n_tenants = 8;
    w.tenant_skew = 1.0;
    w.n_requests = 8 * table_.num_rows();
    w.seed = seed;
    arrivals_ = serve::generate_arrivals(table_.num_rows(), w);
    submissions_ = arrivals_.size();
  }

  std::string describe() const override {
    std::ostringstream os;
    os << "open loop, Poisson " << kRate << " req/s, " << arrivals_.size()
       << " one-shot requests over " << table_.num_rows()
       << " movies-filter rows, 8 Zipf(1.0) tenants, Tenant-GGR 64-row "
          "windows, 4 replicas PrefixAffinity, flat cache, seed "
       << seed_;
    return os.str();
  }

  CheckResult checks(const RunOutcome& ref, double virtual_wall_s,
                     Values& layer) override {
    // The threaded runtime on the same inputs: same simulated results, and
    // its wall time against the virtual-clock driver's.
    CheckResult c;
    const auto t0 = Clock::now();
    const serve::OnlineRunResult thr =
        serve::run_online_threaded(table_, fds_, arrivals_, config_);
    const double wall = seconds_since(t0);
    const bool match = sim_of(thr) == ref.sim &&
                       thr.requests.size() == ref.invocations;
    layer["serve.threaded.wall_s"] = wall;
    layer["serve.threaded.vs_virtual"] = ratio(wall, virtual_wall_s);
    layer["serve.threaded.match"] = match ? 1.0 : 0.0;
    c.attempted = thr.requests.size();
    if (match) {
      c.passed.push_back("threaded runtime matches the virtual driver");
    } else {
      c.failed = thr.requests.size();
      c.errors.push_back("threaded runtime diverged from the virtual driver");
    }
    return c;
  }

 private:
  static constexpr double kRate = 56.0;
  const std::vector<serve::Arrival>& arrivals() const override {
    return arrivals_;
  }
  std::vector<serve::Arrival> arrivals_;
};

// agent_sessions: agent tool-loop sessions on a tiered cache; write-heavy.
class AgentSessions final : public OnlineWorkload {
 public:
  void setup(std::uint64_t seed, Size size, SpanRecorder* rec) override {
    seed_ = seed;
    movies_filter_table(size == Size::Tiny ? 200 : 600, seed, rec);
    config_.avg_output_tokens = 12.0;
    config_.class_output_multiplier = {0.5, 1.0, 2.0};
    config_.ttft_slo_seconds = 2.0;
    config_.scheduler.policy = serve::Policy::Fifo;
    config_.scheduler.window_rows = 16;
    config_.scheduler.max_wait_seconds = 0.25;
    config_.engine.max_batch_size = 16;
    config_.engine.preemption = true;
    config_.engine.priority_aging_seconds = 8.0;
    config_.engine.prefill_chunk_tokens = 256;
    config_.engine.cache_tiers = 2;
    config_.n_replicas = 2;
    config_.router = serve::RouterPolicy::PrefixAffinity;
    config_.scale_kv_pool(kv_fraction_ / 2.0);
    config_.engine.host_capacity_blocks =
        4 * config_.engine.kv_pool_blocks_override;

    serve::WorkloadOptions w;
    w.arrival_rate = kRootRate;
    w.n_tenants = 6;
    w.tenant_skew = 1.0;
    w.tenant_classes = {llm::PriorityClass::Interactive,
                        llm::PriorityClass::Standard,
                        llm::PriorityClass::Batch};
    w.n_requests = size == Size::Tiny ? 20 : kRoots;
    w.seed = seed;
    serve::SessionOptions so;
    so.kind = serve::SessionKind::Agent;
    so.turns = kTurns;
    so.mean_gap_seconds = 0.5;
    sessions_ = serve::generate_sessions(table_.num_rows(), w, so);
    config_.sessions = &sessions_;
    submissions_ = 0;
    for (const serve::SessionPlan& p : sessions_.plans)
      submissions_ += 1 + p.follow_ups.size();
  }

  std::string describe() const override {
    std::ostringstream os;
    os << "open-loop Poisson session roots at " << kRootRate << " /s, "
       << sessions_.roots.size() << " agent sessions x " << kTurns
       << " turns (" << submissions_
       << " requests; each turn waits for its parent plus a tool gap), "
       << table_.num_rows()
       << " movies-filter rows, 6 tenants in 3 priority classes, FIFO "
          "windows, 2 replicas, chunked prefill + preemption, GPU->host "
          "tiered cache (host = 4x GPU pool), seed "
       << seed_;
    return os.str();
  }

  CheckResult checks(const RunOutcome& ref, double, Values&) override {
    CheckResult c;
    serve::OnlineConfig traced = config_;
    obs::TraceLog log;
    traced.trace.sink = &log;
    const serve::OnlineRunResult r =
        serve::run_online(table_, fds_, sessions_.roots, traced);
    const obs::AuditResult audit = obs::audit_trace(log);
    c.attempted = r.requests.size();
    if (sim_of(r) != ref.sim) {
      c.failed = r.requests.size();
      c.errors.push_back("run with a TraceLog differs from the untraced run");
    }
    if (audit.ok()) {
      c.passed.push_back("audit_trace clean over " +
                         std::to_string(audit.events) + " events");
    } else {
      c.failed = r.requests.size();
      c.errors.push_back("audit_trace: " + audit.first_violation());
    }
    return c;
  }

 private:
  static constexpr double kRootRate = 1.5;
  static constexpr std::size_t kRoots = 1200;
  static constexpr std::size_t kTurns = 4;
  const std::vector<serve::Arrival>& arrivals() const override {
    return sessions_.roots;
  }
  serve::SessionWorkload sessions_;
};

// ---------------------------------------------------------------------------
// served_queries: 8 concurrent relational lanes through QueryClient.

class ServedQueries final : public Workload {
 public:
  void setup(std::uint64_t seed, Size size, SpanRecorder* rec) override {
    seed_ = seed;
    dataset_ = generate("movies", size == Size::Tiny ? 60 : 800, seed, rec);
    const double kvf = static_cast<double>(dataset_.table.num_rows()) /
                       static_cast<double>(data::paper_rows("movies"));
    config_ = query::ExecConfig::standard(query::Method::CacheGgr);
    config_.scale_kv_pool(kvf);
    fleet_ = serve::fleet_from_exec(config_);
    fleet_.n_replicas = 2;
    fleet_.router = serve::RouterPolicy::PrefixAffinity;
    fleet_.scale_kv_pool(kvf / 2.0);
    specs_.clear();
    std::size_t i = 0;
    for (const char* id : {"movies-filter", "movies-projection",
                           "movies-aggregation", "movies-multi"}) {
      for (int copy = 0; copy < 2; ++copy, ++i) {
        serve::ServedQuerySpec q;
        q.dataset = &dataset_;
        q.query = &data::query_by_id(id);
        q.config = config_;
        q.start_time = kStartGap * static_cast<double>(i);
        q.request_interval = kPacing;
        specs_.push_back(q);
      }
    }
  }

  std::string describe() const override {
    std::ostringstream os;
    os << "8 concurrent query lanes (filter, projection, aggregation, "
          "multi-LLM, each twice) over "
       << dataset_.table.num_rows() << " movies rows; starts every "
       << kStartGap << " s, rows paced " << kPacing
       << " s apart, stage 2 after stage 1; 2 replicas PrefixAffinity, "
          "dedup memo on, seed "
       << seed_;
    return os.str();
  }

  RunOutcome run() override {
    return outcome(serve::run_queries_served(specs_, fleet_));
  }

  RunOutcome run_composed(SpanRecorder* rec) override {
    serve::ServedQueriesResult r;
    {
      Scoped s(rec, "serve.query_client.run");
      r = serve::run_queries_served(specs_, fleet_);
      if (rec) {
        double solve = 0.0;
        for (const auto& q : r.queries) solve += q.solver_seconds;
        rec->add_measured_child("core.plan", solve, kNoId);
      }
    }
    return outcome(r);
  }

  RunOutcome run_capture(Values& layer) override {
    const serve::ServedQueriesResult r =
        serve::run_queries_served(specs_, fleet_);
    const serve::OnlineRunResult& s = r.serving;
    engine_layers(s.engine, s.requests.size() - s.dedup.hits, layer);
    layer["serve.router.load_imbalance"] = s.load_imbalance;
    layer["serve.query_client.dedup_hit_frac"] =
        ratio(static_cast<double>(s.dedup.hits),
              static_cast<double>(s.requests.size()));
    layer["serve.query_client.effective_hit"] = s.effective_hit_fraction();

    // The lanes plan the same stage tables the offline path plans (their
    // answers are checked equal), so the offline composition counts the
    // planner's work and supplies the prompt stream for the cache replay.
    ReplaySegment seg;
    seg.config = replica_cache_config(fleet_.model, fleet_.gpu, fleet_.engine);
    for (std::size_t i = 0; i < specs_.size(); ++i) {
      ComposedQuery q =
          compose_query(dataset_, *specs_[i].query, config_, nullptr, i);
      add_ggr(layer, q.ggr, q.plan_calls);
      for (const auto& st : q.streams)
        for (const llm::Request& req : st) {
          seg.prompts.push_back(req.prompt);
          seg.cache_of.push_back(0);
        }
    }
    replay({seg}, layer);
    return outcome(r);
  }

  CheckResult checks(const RunOutcome&, double, Values&) override {
    CheckResult c;
    const serve::ServedQueriesResult r =
        serve::run_queries_served(specs_, fleet_);
    for (std::size_t i = 0; i < specs_.size(); ++i) {
      const query::QueryRunResult offline =
          query::run_query(dataset_, *specs_[i].query, config_);
      const query::QueryRunResult& served = r.queries[i];
      c.attempted += served.answers.size();
      std::uint64_t wrong = 0;
      for (std::size_t row = 0; row < offline.answers.size(); ++row)
        if (row >= served.answers.size() ||
            served.answers[row] != offline.answers[row])
          ++wrong;
      if (served.answers.size() != offline.answers.size() ||
          served.rows_selected != offline.rows_selected ||
          served.aggregate != offline.aggregate)
        wrong = std::max<std::uint64_t>(wrong, 1);
      if (wrong) {
        c.failed += wrong;
        c.errors.push_back("lane " + std::to_string(i) + " (" +
                           specs_[i].query->id +
                           ") answers differ from offline run_query");
      }
    }
    if (c.failed == 0)
      c.passed.push_back("8 lanes' answers equal offline run_query");
    return c;
  }

  Values sim_report(const SimMetrics& s) const override {
    return {{"sim_jct_s", s.jct_s},
            {"sim_phr", s.phr},
            {"sim_ttft_p50_s", s.ttft_p50_s},
            {"sim_ttft_p99_s", s.ttft_p99_s},
            {"sim_ttft_count", static_cast<double>(s.ttft_count)},
            {"sim_goodput_rps", s.goodput_rps}};
  }

 private:
  static constexpr double kStartGap = 0.05;
  static constexpr double kPacing = 0.01;

  RunOutcome outcome(const serve::ServedQueriesResult& r) const {
    RunOutcome o;
    o.sim = sim_of(r.serving);
    Fnv h;
    for (const auto& q : r.queries) digest_query(h, q);
    o.sim.answer_digest = h.value();
    o.invocations = r.serving.requests.size();
    for (std::size_t i = 0; i < r.queries.size(); ++i) {
      std::uint64_t rows = 0;
      for (const auto& st : r.queries[i].stages) rows += st.rows;
      const serve::QueryLaneMetrics& lane = r.serving.per_query[i];
      o.submitted += rows;
      if (lane.requests != rows) {
        o.failed += rows > lane.requests ? rows - lane.requests : 1;
        o.errors.push_back("lane " + std::to_string(i) +
                           ": completions != submitted rows");
      }
    }
    if (o.invocations != o.submitted) {
      o.failed = std::max<std::uint64_t>(o.failed, 1);
      o.errors.push_back("fleet completions != submissions");
    }
    if (!tokens_conserved(r.serving.engine)) {
      o.failed = std::max(o.failed, o.invocations);
      o.errors.push_back("cached + computed != prompt tokens");
    }
    return o;
  }

  std::uint64_t seed_ = 0;
  data::Dataset dataset_;
  query::ExecConfig config_;
  serve::FleetConfig fleet_;
  std::vector<serve::ServedQuerySpec> specs_;
};

}  // namespace

const std::vector<std::string>& workload_names() {
  static const std::vector<std::string> names = {
      "batch_suite", "stream_fleet", "agent_sessions", "served_queries"};
  return names;
}

std::unique_ptr<Workload> make_workload(const std::string& name) {
  if (name == "batch_suite") return std::make_unique<BatchSuite>();
  if (name == "stream_fleet") return std::make_unique<StreamFleet>();
  if (name == "agent_sessions") return std::make_unique<AgentSessions>();
  if (name == "served_queries") return std::make_unique<ServedQueries>();
  return nullptr;
}

}  // namespace perfbench
