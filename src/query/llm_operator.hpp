#pragma once
// The LLM operator (paper §3.1, §5).
//
// Takes a prompt template, a set of field expressions over a table, and a
// planner-produced Ordering; materializes the request stream the serving
// engine executes, plus (via the task model) the per-row answers and
// output lengths. The operator is where "relational row" becomes
// "LLM request".

#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "core/ordering.hpp"
#include "llm/request.hpp"
#include "llm/task_model.hpp"
#include "query/prompt.hpp"
#include "table/table.hpp"

namespace llmq::query {

struct LlmOperatorSpec {
  PromptTemplate tmpl;
  double avg_output_tokens = 2.0;
  /// Categorical answers (filter/aggregation); empty = free-form output.
  std::vector<std::string> answers;
  /// Name of the answer-bearing field (position-sensitivity); empty = none.
  std::string key_field;
  /// Task position sensitivity (see data::QuerySpec).
  double position_sensitivity = 0.0;
};

struct OperatorOutput {
  /// Requests in schedule (ordering) order; row_tag = original row index.
  std::vector<llm::Request> requests;
  /// Task answer per *original* row index ("" for free-form tasks without
  /// ground truth).
  std::vector<std::string> answers;
};

/// Build the request stream for `ordering` over `t`.
/// `truth` (aligned with t's rows) supplies ground-truth labels for
/// categorical tasks; free-form tasks may pass an empty vector. `view` is
/// the run's encoded view of `t` (null: the call encodes `t` itself).
OperatorOutput build_requests(const table::Table& t,
                              const core::Ordering& ordering,
                              const LlmOperatorSpec& spec,
                              const llm::TaskModel& model,
                              const std::vector<std::string>& truth,
                              std::shared_ptr<EncodedView> view = nullptr);

/// Fraction in [0,1] locating `key_field` within `field_order` (0 = first).
/// Returns 0.5 when the field is absent or the row has a single field.
double key_field_fraction(const table::Schema& schema,
                          std::span<const std::size_t> field_order,
                          const std::string& key_field);

}  // namespace llmq::query
