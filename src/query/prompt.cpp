#include "query/prompt.hpp"

#include "util/json.hpp"

namespace llmq::query {

std::string render_instruction_prefix(const PromptTemplate& tmpl) {
  std::string out;
  out.reserve(tmpl.system_prompt.size() + tmpl.user_prompt.size() + 64);
  out += tmpl.system_prompt;
  out += "\n\nAnswer the below query:\n";
  out += tmpl.user_prompt;
  out += "\n\nGiven the following data:\n";
  return out;
}

std::string render_row_json(const table::Table& t, std::size_t row,
                            std::span<const std::size_t> field_order) {
  util::JsonWriter w;
  w.begin_object();
  for (std::size_t f : field_order)
    w.kv(t.schema().field(f).name, t.cell(row, f));
  w.end_object();
  return w.take();
}

std::string render_prompt(const PromptTemplate& tmpl, const table::Table& t,
                          std::size_t row,
                          std::span<const std::size_t> field_order) {
  return render_instruction_prefix(tmpl) + render_row_json(t, row, field_order);
}

PromptEncoder::PromptEncoder(PromptTemplate tmpl) : tmpl_(std::move(tmpl)) {
  prefix_tokens_ =
      tokenizer::global_tokenizer().encode(render_instruction_prefix(tmpl_));
}

tokenizer::TokenSeq PromptEncoder::encode(
    const table::Table& t, std::size_t row,
    std::span<const std::size_t> field_order) const {
  // Tokenize the row first, so the prompt is allocated once, at its exact
  // size: requests hold their prompts for the whole run.
  thread_local tokenizer::TokenSeq row_tokens;
  row_tokens.clear();
  tokenizer::global_tokenizer().encode_append(
      render_row_json(t, row, field_order), row_tokens);
  tokenizer::TokenSeq out;
  out.reserve(prefix_tokens_.size() + row_tokens.size());
  out.insert(out.end(), prefix_tokens_.begin(), prefix_tokens_.end());
  out.insert(out.end(), row_tokens.begin(), row_tokens.end());
  return out;
}

}  // namespace llmq::query
