#include "query/llm_operator.hpp"

namespace llmq::query {

double key_field_fraction(const table::Schema& schema,
                          std::span<const std::size_t> field_order,
                          const std::string& key_field) {
  if (key_field.empty() || field_order.size() < 2) return 0.5;
  const auto idx = schema.index_of(key_field);
  if (!idx) return 0.5;
  for (std::size_t pos = 0; pos < field_order.size(); ++pos) {
    if (field_order[pos] == *idx)
      return static_cast<double>(pos) /
             static_cast<double>(field_order.size() - 1);
  }
  return 0.5;
}

OperatorOutput build_requests(const table::Table& t,
                              const core::Ordering& ordering,
                              const LlmOperatorSpec& spec,
                              const llm::TaskModel& model,
                              const std::vector<std::string>& truth,
                              std::shared_ptr<EncodedView> view) {
  OperatorOutput out;
  out.requests.reserve(t.num_rows());
  out.answers.assign(t.num_rows(), std::string());

  const PromptEncoder encoder(spec.tmpl, std::move(view));
  const auto& tok = tokenizer::global_tokenizer();

  for (std::size_t pos = 0; pos < ordering.num_rows(); ++pos) {
    const std::size_t row = ordering.row_at(pos);
    const auto& fields = ordering.fields_at(pos);

    llm::Request req;
    req.id = pos;
    req.row_tag = row;
    req.prompt = encoder.encode(t, row, fields);

    // Row identity for the deterministic channels: the key field's content
    // when present, else the whole row in *schema* order — deliberately
    // independent of the planner's ordering so output lengths (and thus
    // decode work) are identical across methods and timing comparisons
    // stay fair.
    std::string row_key;
    if (!spec.key_field.empty() && t.schema().has(spec.key_field)) {
      row_key = t.cell(row, t.schema().require(spec.key_field));
    } else {
      for (std::size_t c = 0; c < t.num_cols(); ++c) {
        row_key += t.cell(row, c);
        row_key += '\x1f';
      }
    }

    if (!spec.answers.empty() && row < truth.size() && !truth[row].empty()) {
      const double frac =
          key_field_fraction(t.schema(), fields, spec.key_field);
      out.answers[row] = model.answer(row_key, truth[row], spec.answers, frac,
                                      spec.position_sensitivity);
      req.output_tokens = std::max<std::size_t>(
          1, tok.count(out.answers[row]));
    } else {
      // Free-form output (projection/summarization): deterministic text
      // whose token count is what the engine decodes.
      out.answers[row] = model.generate_text(row_key, spec.avg_output_tokens);
      req.output_tokens =
          std::max<std::size_t>(1, tok.count(out.answers[row]));
    }
    out.requests.push_back(std::move(req));
  }
  return out;
}

}  // namespace llmq::query
