#include "serve/query_client.hpp"

#include <algorithm>
#include <limits>
#include <stdexcept>
#include <utility>

namespace llmq::serve {

// ---- Internal bookkeeping types. ----

/// One leader invocation and everyone waiting on it.
struct QueryClient::MemoEntry {
  bool done = false;
  llm::RequestResult leader;          // valid once done
  std::size_t leader_replica = 0;
  std::vector<std::uint64_t> waiters;  // internal ids parked on the leader
};

/// Per-request bookkeeping from submission to completion.
struct QueryClient::Meta {
  std::uint32_t lane = 0;
  std::uint64_t internal_id = 0;
  std::size_t row = 0;             // caller's row_tag
  std::size_t prompt_tokens = 0;
  llm::PriorityClass priority = llm::PriorityClass::Standard;
  double submit_time = 0.0;        // the caller's timestamp (arrival)
  double dispatch_time = 0.0;      // when the client processed it
  std::size_t replica = 0;
  QuerySession::Completion done;
  MemoEntry* entry = nullptr;      // set when this request leads a memo entry
};

namespace {

/// Min-heap comparator on (time, seq): std::push_heap builds a max-heap,
/// so order by greater-than.
struct SubmissionAfter {
  bool operator()(const QueryClient::Submission& a,
                  const QueryClient::Submission& b) const {
    if (a.time != b.time) return a.time > b.time;
    return a.seq > b.seq;
  }
};

std::string memo_key(const tokenizer::TokenSeq& prompt,
                     std::size_t output_tokens) {
  std::string key(reinterpret_cast<const char*>(prompt.data()),
                  prompt.size() * sizeof(tokenizer::TokenId));
  key.push_back(':');
  key += std::to_string(output_tokens);
  return key;
}

}  // namespace

void QuerySession::submit(double time, llm::Request req,
                          Completion on_complete) {
  req.priority = priority_;  // the lane's class, not the caller's field
  client_.heap_.push_back(QueryClient::Submission{
      std::max(time, client_.now_), client_.next_seq_++, lane_,
      std::move(req), std::move(on_complete)});
  std::push_heap(client_.heap_.begin(), client_.heap_.end(),
                 SubmissionAfter{});
}

QueryClient::QueryClient(const FleetConfig& fleet, Options options)
    : fleet_config_(fleet), options_(options), fleet_(fleet) {
  if (options_.trace.sink) fleet_.set_trace(options_.trace.sink);
}

QueryClient::~QueryClient() = default;

QuerySession& QueryClient::open_session(std::string label,
                                        llm::PriorityClass priority) {
  const auto lane = static_cast<std::uint32_t>(sessions_.size());
  sessions_.emplace_back(new QuerySession(*this, lane, label, priority));
  lanes_.emplace_back();
  lanes_.back().label = std::move(label);
  lanes_.back().priority = priority;
  return *sessions_.back();
}

void QueryClient::process(Submission s) {
  auto meta = std::make_unique<Meta>();
  meta->lane = s.lane;
  meta->internal_id = next_id_++;
  meta->row = s.req.row_tag;
  meta->prompt_tokens = s.req.prompt.size();
  meta->priority = s.req.priority;
  meta->submit_time = s.time;
  meta->dispatch_time = now_;
  meta->done = std::move(s.done);

  if (!options_.dedup_exact) {
    dispatch_to_fleet(std::move(*meta), std::move(s.req));
    return;
  }
  const std::string key =
      memo_key(s.req.prompt, std::max<std::size_t>(1, s.req.output_tokens));
  auto [it, fresh] = memo_.try_emplace(key);
  MemoEntry& entry = it->second;
  if (fresh) {
    // Leader: execute on the fleet; completion finalizes the entry.
    meta->entry = &entry;
    dispatch_to_fleet(std::move(*meta), std::move(s.req));
  } else if (!entry.done) {
    // Follower: park until the in-flight leader completes.
    entry.waiters.push_back(meta->internal_id);
    waiting_.emplace(meta->internal_id, std::move(meta));
  } else {
    // Replay: the identical invocation already finished; fan out now.
    complete_from_memo(std::move(*meta), entry);
  }
}

void QueryClient::dispatch_to_fleet(Meta meta, llm::Request req) {
  req.id = meta.internal_id;  // fleet-unique (caller ids are per lane)
  meta.replica = fleet_.dispatch(std::move(req), meta.lane, now_);
  const std::uint64_t id = meta.internal_id;
  inflight_.emplace(id, std::make_unique<Meta>(std::move(meta)));
}

void QueryClient::record(const ServedRequest& sr,
                         const QuerySession::Completion& done) {
  QueryLaneMetrics& lane = lanes_[sr.tenant];
  ++lane.requests;
  if (sr.deduped) {
    ++lane.dedup_hits;
    lane.dedup_saved_prompt_tokens += sr.prompt_tokens;
  } else {
    ++lane.engine_requests;
    lane.prompt_tokens += sr.prompt_tokens;
    lane.cached_prompt_tokens += sr.cached_tokens;
    lane.output_tokens += sr.output_tokens;
  }
  requests_.push_back(sr);
  if (done) done(sr);
}

void QueryClient::on_engine_complete(const llm::RequestResult& res,
                                     std::size_t replica) {
  auto it = inflight_.find(res.id);
  if (it == inflight_.end())
    throw std::logic_error("QueryClient: completion for unknown request");
  std::unique_ptr<Meta> meta = std::move(it->second);
  inflight_.erase(it);

  ServedRequest sr;
  sr.id = meta->internal_id;
  sr.tenant = meta->lane;
  sr.row = meta->row;
  sr.replica = replica;
  sr.arrival_time = meta->submit_time;
  sr.dispatch_time = meta->dispatch_time;
  sr.admit_time = res.admit_time;
  sr.first_token_time = res.first_token_time;
  sr.finish_time = res.finish_time;
  sr.prompt_tokens = res.prompt_tokens;
  sr.cached_tokens = res.cached_tokens;
  sr.output_tokens = res.output_tokens;
  sr.priority = meta->priority;
  sr.preemptions = res.preemptions;
  sr.recomputed_tokens = res.recomputed_tokens;
  record(sr, meta->done);

  if (meta->entry) {
    MemoEntry& entry = *meta->entry;
    entry.done = true;
    entry.leader = res;
    entry.leader_replica = replica;
    ++dedup_.leaders;
    // Fan the completion out to everyone parked on this leader.
    std::vector<std::uint64_t> waiters = std::move(entry.waiters);
    entry.waiters.clear();
    for (std::uint64_t wid : waiters) {
      auto wit = waiting_.find(wid);
      if (wit == waiting_.end())
        throw std::logic_error("QueryClient: parked follower lost");
      std::unique_ptr<Meta> w = std::move(wit->second);
      waiting_.erase(wit);
      complete_from_memo(std::move(*w), entry);
    }
  }
}

void QueryClient::complete_from_memo(Meta meta, const MemoEntry& entry) {
  // The answer becomes available the instant the leader finished (parked
  // follower) or the instant this duplicate was dispatched (replay of an
  // already-finished leader) — no prefill, no decode, no cache traffic.
  const double t = std::max(meta.dispatch_time, entry.leader.finish_time);
  ServedRequest sr;
  sr.id = meta.internal_id;
  sr.tenant = meta.lane;
  sr.row = meta.row;
  sr.replica = entry.leader_replica;
  sr.arrival_time = meta.submit_time;
  sr.dispatch_time = meta.dispatch_time;
  sr.admit_time = t;
  sr.first_token_time = t;
  sr.finish_time = t;
  sr.prompt_tokens = meta.prompt_tokens;
  sr.cached_tokens = 0;  // memo savings are NOT prefix hits
  sr.output_tokens = entry.leader.output_tokens;
  sr.deduped = true;
  sr.priority = meta.priority;  // the follower's own lane class

  ++dedup_.hits;
  dedup_.saved_prompt_tokens += meta.prompt_tokens;
  dedup_.saved_output_tokens += entry.leader.output_tokens;
  record(sr, meta.done);
}

void QueryClient::run() {
  obs::SampleClock sampler(
      options_.trace.sampling() ? options_.trace.timeseries : nullptr,
      options_.trace.sample_interval_seconds);
  while (!heap_.empty() || fleet_.any_work()) {
    // 0. Advance the merged clock to the execution frontier.
    now_ = fleet_.frontier(now_);
    if (sampler.due(now_)) {
      fleet_.sample_gauges(*sampler.series(), now_);
      sampler.advance_past(now_);
    }
    // 1. Process every submission whose timestamp has passed.
    while (!heap_.empty() && heap_.front().time <= now_) {
      std::pop_heap(heap_.begin(), heap_.end(), SubmissionAfter{});
      Submission s = std::move(heap_.back());
      heap_.pop_back();
      process(std::move(s));
    }
    // 2. Execute: step the busy replica with the earliest clock.
    if (fleet_.any_work()) {
      ReplicaFleet::StepResult st = fleet_.step();
      for (const llm::RequestResult& res : st.completed)
        on_engine_complete(res, st.replica);
      continue;
    }
    // 3. Everything idle: jump to the next submission.
    if (!heap_.empty()) now_ = std::max(now_, heap_.front().time);
  }
  if (!waiting_.empty())
    throw std::logic_error(
        "QueryClient: followers parked with no leader in flight");
}

OnlineRunResult QueryClient::result() const {
  OnlineRunResult out;
  out.requests = requests_;
  out.latency = summarize_latency(requests_, options_.ttft_slo_seconds);
  out.per_class = summarize_by_class(requests_, options_.ttft_slo_seconds);
  out.replicas = fleet_.replica_metrics();
  out.engine = aggregate_replica_engines(out.replicas);
  out.load_imbalance = fleet_.load_imbalance();
  out.per_query = lanes_;
  out.dedup = dedup_;
  // Per-lane latency + per-tenant counts from the completion log.
  std::vector<std::vector<ServedRequest>> by_lane(lanes_.size());
  for (const ServedRequest& sr : requests_) by_lane[sr.tenant].push_back(sr);
  out.per_tenant.assign(lanes_.size(), 0);
  for (std::size_t l = 0; l < lanes_.size(); ++l) {
    out.per_query[l].latency =
        summarize_latency(by_lane[l], options_.ttft_slo_seconds);
    out.per_tenant[l] = by_lane[l].size();
  }
  return out;
}

// ---- Query-over-serving driver. ----

namespace {

/// One query's lifecycle on the shared client: submit stage 1, collect
/// completions keyed by row id, apply the relational epilogue, submit
/// stage 2 (multi-LLM) from inside the event loop, finalize metrics.
class ServedQuery {
 public:
  ServedQuery(QueryClient& client, const ServedQuerySpec& qs)
      : client_(client),
        qs_(qs),
        session_(client.open_session(qs.query->id, qs.priority)) {
    result_.query_id = qs.query->id;
    last_finish_ = qs.start_time;
    submit_stage(qs.query->stage1, qs.dataset->table,
                 qs.dataset->truth_for(qs.query->stage1.truth_key),
                 qs.start_time);
  }

  query::QueryRunResult take_result() {
    if (stage_.remaining != 0)
      throw std::logic_error("ServedQuery: stage still has rows in flight");
    result_.total_seconds = last_finish_ - qs_.start_time;
    return std::move(result_);
  }

 private:
  struct StageState {
    std::vector<std::string> answers;  // per row of the stage table
    std::vector<bool> seen;            // row completed (exactly-once check)
    std::size_t remaining = 0;
    query::StageMetrics metrics;
    double t0 = 0.0;
    double last_finish = 0.0;
  };

  void submit_stage(const data::StageSpec& stage, const table::Table& t,
                    const std::vector<std::string>& truth, double t0) {
    query::StagePrep prep = query::prepare_stage(
        t, qs_.dataset->fds, *qs_.query, stage, truth,
        qs_.dataset->key_field, qs_.config);
    stage_ = StageState{};
    stage_.answers.assign(t.num_rows(), std::string());
    stage_.seen.assign(t.num_rows(), false);
    stage_.remaining = prep.ops.requests.size();
    stage_.metrics.rows = t.num_rows();
    stage_.metrics.solver_seconds = prep.plan.solver_seconds;
    stage_.t0 = t0;
    stage_.last_finish = t0;
    result_.solver_seconds += prep.plan.solver_seconds;
    if (stage_.remaining == 0) {  // empty stage: finalize immediately
      finish_stage();
      return;
    }
    // Hand the precomputed per-row answers to the completion path: the
    // stage's answer vector is filled as rows complete, which is what
    // makes "every row completes exactly once" an answer-level property.
    answers_by_row_ = std::move(prep.ops.answers);
    for (std::size_t i = 0; i < prep.ops.requests.size(); ++i) {
      const double ts =
          t0 + static_cast<double>(i) * qs_.request_interval;
      session_.submit(ts, std::move(prep.ops.requests[i]),
                      [this](const ServedRequest& sr) { on_row(sr); });
    }
  }

  void on_row(const ServedRequest& sr) {
    StageState& st = stage_;
    if (sr.row >= st.seen.size() || st.seen[sr.row])
      throw std::logic_error(
          "ServedQuery: duplicate or out-of-range row completion");
    st.seen[sr.row] = true;
    st.answers[sr.row] = answers_by_row_[sr.row];
    if (sr.deduped) {
      ++st.metrics.dedup_hits;
    } else {
      st.metrics.engine.prompt_tokens += sr.prompt_tokens;
      st.metrics.engine.cached_prompt_tokens += sr.cached_tokens;
      st.metrics.engine.computed_prompt_tokens +=
          sr.prompt_tokens - sr.cached_tokens;
      st.metrics.engine.output_tokens += sr.output_tokens;
    }
    st.last_finish = std::max(st.last_finish, sr.finish_time);
    if (--st.remaining == 0) finish_stage();
  }

  void finish_stage() {
    StageState& st = stage_;
    st.metrics.engine.total_seconds = st.last_finish - st.t0;
    st.metrics.token_phr = st.metrics.engine.prompt_cache_hit_rate();
    last_finish_ = std::max(last_finish_, st.last_finish);
    result_.stages.push_back(st.metrics);

    if (result_.stages.size() == 1) {
      result_.answers = st.answers;
      const std::vector<std::size_t> selected = query::stage1_epilogue(
          result_, *qs_.query, *qs_.dataset, st.answers);
      if (!selected.empty() && qs_.query->stage2) {
        stage2_input_ = query::make_stage2_input(*qs_.dataset,
                                                 *qs_.query->stage2, selected);
        submit_stage(*qs_.query->stage2, stage2_input_.table,
                     stage2_input_.truth, client_.now());
      }
    }
  }

  QueryClient& client_;
  ServedQuerySpec qs_;
  QuerySession& session_;
  query::QueryRunResult result_;
  StageState stage_;
  std::vector<std::string> answers_by_row_;  // task-model answers, per row
  query::Stage2Input stage2_input_;
  double last_finish_ = 0.0;
};

}  // namespace

FleetConfig fleet_from_exec(const query::ExecConfig& config) {
  FleetConfig f;
  f.engine = config.engine;
  f.engine.cache_enabled = config.cache_enabled;
  f.model = config.model;
  f.gpu = config.gpu;
  f.n_replicas = 1;
  return f;
}

ServedQueriesResult run_queries_served(
    const std::vector<ServedQuerySpec>& queries, const FleetConfig& fleet,
    QueryClient::Options options) {
  for (const ServedQuerySpec& q : queries)
    if (!q.dataset || !q.query)
      throw std::invalid_argument(
          "run_queries_served: dataset and query must be set");

  QueryClient client(fleet, options);
  std::vector<std::unique_ptr<ServedQuery>> live;
  live.reserve(queries.size());
  for (const ServedQuerySpec& q : queries)
    live.push_back(std::make_unique<ServedQuery>(client, q));
  client.run();

  ServedQueriesResult out;
  out.queries.reserve(queries.size());
  for (auto& q : live) out.queries.push_back(q->take_result());
  out.serving = client.result();
  return out;
}

}  // namespace llmq::serve
