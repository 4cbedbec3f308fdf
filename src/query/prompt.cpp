#include "query/prompt.hpp"

#include <stdexcept>

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

RowSegments::RowSegments(const core::EncodedTable& codes) : codes_(&codes) {
  const auto& tok = tokenizer::global_tokenizer();
  const table::Schema& schema = codes.table().schema();
  const std::size_t m = codes.num_cols();
  std::string text;
  key_at_.reserve(m + 1);
  key_at_.push_back(0);
  for (std::size_t f = 0; f < m; ++f) {
    text = '"';
    text += util::json_escape(schema.field(f).name);
    text += "\":\"";
    tok.encode_append(text, keys_);
    key_at_.push_back(static_cast<std::uint32_t>(keys_.size()));
  }
  value_base_.reserve(m);
  value_at_.push_back(0);
  for (std::size_t c = 0; c < m; ++c) {
    value_base_.push_back(static_cast<std::uint32_t>(value_at_.size() - 1));
    for (std::uint32_t k = 0; k < codes.cardinality(c); ++k) {
      text = util::json_escape(codes.value(c, k));
      text += '"';
      tok.encode_append(text, values_);
      value_at_.push_back(static_cast<std::uint32_t>(values_.size()));
    }
  }
  open_ = tok.encode("{").front();
  space_open_ = tok.encode(" {").front();
  comma_ = tok.encode(",").front();
  close_ = tok.encode("}").front();
}

std::size_t RowSegments::count(std::size_t row,
                               std::span<const std::size_t> fo) const {
  std::size_t n = fo.empty() ? 2 : fo.size() + 1;  // braces and commas
  for (const std::size_t f : fo)
    n += key_at_[f + 1] - key_at_[f] + value(row, f).size();
  return n;
}

void RowSegments::append(std::size_t row, std::span<const std::size_t> fo,
                         tokenizer::TokenSeq& out, bool after_space) const {
  out.push_back(after_space ? space_open_ : open_);
  for (std::size_t i = 0; i < fo.size(); ++i) {
    if (i > 0) out.push_back(comma_);
    const std::size_t f = fo[i];
    out.insert(out.end(), keys_.begin() + key_at_[f],
               keys_.begin() + key_at_[f + 1]);
    const auto v = value(row, f);
    out.insert(out.end(), v.begin(), v.end());
  }
  out.push_back(close_);
}

void EncodedView::bind(const table::Table& t) {
  if (table_ == nullptr) table_ = &t;
  if (table_ != &t)
    throw std::invalid_argument(
        "EncodedView: asked for a table other than the one it encodes");
}

const core::EncodedTable& EncodedView::codes(const table::Table& t) {
  bind(t);
  if (!codes_) codes_.emplace(t);
  return *codes_;
}

const RowSegments& EncodedView::segments(const table::Table& t) {
  const core::EncodedTable& c = codes(t);
  if (!segments_) segments_.emplace(c);
  return *segments_;
}

PromptEncoder::PromptEncoder(PromptTemplate tmpl,
                             std::shared_ptr<EncodedView> view)
    : prefix_tokens_(tokenizer::global_tokenizer().encode(
          render_instruction_prefix(tmpl))),
      view_(view ? std::move(view) : std::make_shared<EncodedView>()) {}

tokenizer::TokenSeq PromptEncoder::encode(
    const table::Table& t, std::size_t row,
    std::span<const std::size_t> field_order) const {
  const RowSegments& rows = view_->segments(t);
  // Allocated once, at its exact size: requests hold their prompts for
  // the whole run.
  tokenizer::TokenSeq out;
  out.reserve(prefix_tokens_.size() + rows.count(row, field_order));
  out.insert(out.end(), prefix_tokens_.begin(), prefix_tokens_.end());
  rows.append(row, field_order, out);
  return out;
}

}  // namespace llmq::query
