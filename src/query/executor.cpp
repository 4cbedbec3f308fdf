#include "query/executor.hpp"

#include <algorithm>
#include <memory>
#include <optional>

#include "core/phc.hpp"
#include "table/value.hpp"

namespace llmq::query {

StagePrep prepare_stage(const table::Table& t, const table::FdSet& fds,
                        const data::QuerySpec& spec,
                        const data::StageSpec& stage,
                        const std::vector<std::string>& truth,
                        const std::string& key_field,
                        const ExecConfig& config) {
  // The stage's field expressions: {T.*} (no fields) is `t` itself; a
  // projection lives for this call only.
  std::optional<table::Table> projected;
  if (!stage.fields.empty()) projected.emplace(t.project(stage.fields));
  const table::Table& st = projected ? *projected : t;
  // The stage table's encoded view, shared by the planner and the prompt
  // builder; it lives for this call only.
  const auto view = std::make_shared<EncodedView>(st);

  // 1. Plan the request ordering over exactly the fields the operator
  //    touches (§3.1: the optimizer may permute fields within the LLM's
  //    field-expression list).
  StagePrep prep;
  prep.plan = core::plan_ordering(
      st, fds, config.planner,
      [&]() -> const core::EncodedTable& { return view->codes(st); });

  // 2. Materialize requests + task answers.
  LlmOperatorSpec op;
  op.tmpl.system_prompt = spec.system_prompt;
  op.tmpl.user_prompt = stage.user_prompt;
  op.avg_output_tokens = stage.avg_output_tokens;
  op.answers = stage.answers;
  op.key_field = key_field;
  op.position_sensitivity = spec.position_sensitivity;
  const llm::TaskModel task_model(config.model_profile);
  prep.ops =
      build_requests(st, prep.plan.ordering, op, task_model, truth, view);
  return prep;
}

StageRun run_stage(const table::Table& t, const table::FdSet& fds,
                   const data::QuerySpec& spec, const data::StageSpec& stage,
                   const std::vector<std::string>& truth,
                   const std::string& key_field, const ExecConfig& config,
                   cache::PrefixCache* session_cache) {
  StagePrep prep =
      prepare_stage(t, fds, spec, stage, truth, key_field, config);

  StageRun out;
  out.metrics.solver_seconds = prep.plan.solver_seconds;
  out.metrics.rows = t.num_rows();

  // 3. Serve on a private engine (the offline path; the served path in
  //    serve/query_client.hpp executes the same prep on a shared fleet).
  llm::CostModel cost(config.model, config.gpu);
  llm::EngineConfig ec = config.engine;
  ec.cache_enabled = config.cache_enabled;
  llm::ServingEngine engine(cost, ec);
  llm::BatchRunResult run = session_cache
                                ? engine.run(prep.ops.requests, *session_cache)
                                : engine.run(prep.ops.requests);

  out.metrics.engine = run.metrics;
  out.metrics.token_phr = run.metrics.prompt_cache_hit_rate();
  out.answers = std::move(prep.ops.answers);
  return out;
}

std::vector<std::size_t> stage1_epilogue(
    QueryRunResult& result, const data::QuerySpec& spec,
    const data::Dataset& dataset, const std::vector<std::string>& answers) {
  switch (spec.type) {
    case data::QueryType::Filter:
    case data::QueryType::Rag: {
      // Relational epilogue: keep rows whose answer equals the first
      // (positive) answer choice.
      if (!spec.stage1.answers.empty()) {
        const std::string& keep = spec.stage1.answers.front();
        result.rows_selected = static_cast<std::size_t>(
            std::count(answers.begin(), answers.end(), keep));
      } else {
        result.rows_selected = dataset.table.num_rows();
      }
      break;
    }
    case data::QueryType::Projection:
      result.rows_selected = dataset.table.num_rows();
      break;
    case data::QueryType::Aggregation: {
      // AVG over numeric LLM outputs.
      double sum = 0.0;
      std::size_t count = 0;
      for (const auto& a : answers) {
        if (auto v = table::parse_double(a)) {
          sum += *v;
          ++count;
        }
      }
      result.aggregate = count ? sum / static_cast<double>(count) : 0.0;
      result.rows_selected = count;
      break;
    }
    case data::QueryType::MultiLlm: {
      // Stage 1 is a sentiment filter; the paper's example keeps NEGATIVE
      // reviews (Appendix A), i.e. the *last* answer choice.
      const std::string keep = spec.stage1.answers.empty()
                                   ? std::string()
                                   : spec.stage1.answers.back();
      std::vector<std::size_t> selected;
      for (std::size_t r = 0; r < answers.size(); ++r)
        if (answers[r] == keep) selected.push_back(r);
      result.rows_selected = selected.size();
      return selected;
    }
  }
  return {};
}

Stage2Input make_stage2_input(const data::Dataset& dataset,
                              const data::StageSpec& stage2,
                              const std::vector<std::size_t>& selected) {
  Stage2Input out;
  out.table = dataset.table.take_rows(selected);
  const auto& full_truth = dataset.truth_for(stage2.truth_key);
  out.truth.reserve(selected.size());
  for (std::size_t r : selected)
    out.truth.push_back(r < full_truth.size() ? full_truth[r]
                                              : std::string());
  return out;
}

QueryRunResult run_query(const data::Dataset& dataset,
                         const data::QuerySpec& spec,
                         const ExecConfig& config) {
  QueryRunResult result;
  result.query_id = spec.id;

  // ---- Stage 1 (every query type has one). ----
  // Multi-LLM queries talk to one long-lived server: both invocations
  // share the prompt cache (its state persists across the stages).
  std::optional<cache::PrefixCache> session;
  if (spec.type == data::QueryType::MultiLlm) {
    llm::EngineConfig ec = config.engine;
    ec.cache_enabled = config.cache_enabled;
    session.emplace(llm::ServingEngine(
                        llm::CostModel(config.model, config.gpu), ec)
                        .make_session_cache());
  }
  StageRun s1 = run_stage(dataset.table, dataset.fds, spec, spec.stage1,
                          dataset.truth_for(spec.stage1.truth_key),
                          dataset.key_field, config,
                          session ? &*session : nullptr);
  result.total_seconds += s1.metrics.engine.total_seconds;
  result.solver_seconds += s1.metrics.solver_seconds;
  result.stages.push_back(s1.metrics);
  result.answers = s1.answers;

  const std::vector<std::size_t> selected =
      stage1_epilogue(result, spec, dataset, s1.answers);

  if (!selected.empty() && spec.stage2) {
    Stage2Input in2 = make_stage2_input(dataset, *spec.stage2, selected);
    StageRun s2 = run_stage(in2.table, dataset.fds, spec, *spec.stage2,
                            in2.truth, dataset.key_field, config,
                            session ? &*session : nullptr);
    result.total_seconds += s2.metrics.engine.total_seconds;
    result.solver_seconds += s2.metrics.solver_seconds;
    result.stages.push_back(s2.metrics);
  }
  return result;
}

}  // namespace llmq::query
