#pragma once
// End-to-end query execution: planner -> LLM operator -> serving engine.
//
// Stage execution is split into three reusable pieces so the offline path
// (private engine per stage, below) and the served path
// (serve/query_client.hpp: submission into a shared replica fleet) share
// everything except the execution substrate:
//
//   1. prepare_stage()   — plan the ordering, materialize requests and
//                          per-row answers (pure of any engine);
//   2. execution         — run_stage() feeds a private ServingEngine; the
//                          served path submits the same requests as
//                          timestamped invocations and collects
//                          completions keyed by row id;
//   3. stage1_epilogue() — the relational epilogue per query type, plus
//                          make_stage2_input() for multi-LLM stage 2.

#include "cache/prefix_cache.hpp"
#include "query/llm_operator.hpp"
#include "query/plan.hpp"

namespace llmq::query {

/// Run one benchmark query over its dataset under the given configuration.
/// Covers all five query types:
///  * Filter / Aggregation / RAG: one LLM invocation per row over the
///    operator's fields, then a relational epilogue (predicate / AVG).
///  * Projection: one invocation per row, free-form output.
///  * Multi-LLM: stage 1 filters (e.g. NEGATIVE sentiment), stage 2 runs
///    the projection over surviving rows; both stages are independently
///    replanned, matching the paper's setup where stage 1 sees mostly
///    distinct review text and gains little from reordering.
QueryRunResult run_query(const data::Dataset& dataset,
                         const data::QuerySpec& spec, const ExecConfig& config);

/// Internal building block (exposed for tests and custom pipelines): run
/// one LLM stage over `t` and return the stage metrics + answers.
struct StageRun {
  StageMetrics metrics;
  std::vector<std::string> answers;  // per original row of `t`
};
/// `session_cache` (optional) persists KV state across stages, like a
/// long-lived serving endpoint handling both invocations of a multi-LLM
/// query; pass nullptr for a cold cache per stage.
StageRun run_stage(const table::Table& t, const table::FdSet& fds,
                   const data::QuerySpec& spec, const data::StageSpec& stage,
                   const std::vector<std::string>& truth,
                   const std::string& key_field, const ExecConfig& config,
                   cache::PrefixCache* session_cache = nullptr);

/// Everything about a stage up to (but excluding) execution: the planner's
/// ordering over the stage's fields of `t`, and the materialized requests
/// + per-row answers (one per row of `t`). Only `config.planner` and
/// `config.model_profile` are consulted — the engine half of the config
/// belongs to whoever executes.
struct StagePrep {
  core::Plan plan;     // planner output over the stage's fields
  OperatorOutput ops;  // requests in schedule order; answers per row
};
StagePrep prepare_stage(const table::Table& t, const table::FdSet& fds,
                        const data::QuerySpec& spec,
                        const data::StageSpec& stage,
                        const std::vector<std::string>& truth,
                        const std::string& key_field,
                        const ExecConfig& config);

/// Stage-1 relational epilogue for `spec.type` over the per-row answers:
/// fills rows_selected / aggregate on `result` and returns the row
/// indices a multi-LLM stage 2 must run over (empty for every other query
/// type, and when no row survives the stage-1 filter).
std::vector<std::size_t> stage1_epilogue(
    QueryRunResult& result, const data::QuerySpec& spec,
    const data::Dataset& dataset, const std::vector<std::string>& answers);

/// Stage-2 inputs for a multi-LLM query: the filtered table and the truth
/// labels sliced to the surviving rows.
struct Stage2Input {
  table::Table table;
  std::vector<std::string> truth;
};
Stage2Input make_stage2_input(const data::Dataset& dataset,
                              const data::StageSpec& stage2,
                              const std::vector<std::size_t>& selected);

}  // namespace llmq::query
