#pragma once
// Prompt construction (paper §5).
//
// Each request = system prompt + user query + the row rendered as a JSON
// object whose *key order follows the planner's per-row field order*. The
// instruction prefix is identical across a query's rows (and is itself a
// cacheable shared prefix); everything the reordering algorithms optimize
// lives in the JSON section.
//
// render_row_json is the specification of a row's text. Encoders do not
// render it: they concatenate the row's token segments, each tokenized
// once per distinct value (RowSegments below, DESIGN.md §14).

#include <cstddef>
#include <cstdint>
#include <memory>
#include <optional>
#include <span>
#include <string>
#include <vector>

#include "core/encoded_table.hpp"
#include "core/ordering.hpp"
#include "table/table.hpp"
#include "tokenizer/tokenizer.hpp"

namespace llmq::query {

struct PromptTemplate {
  std::string system_prompt;
  std::string user_prompt;
};

/// The instruction prefix shared by all rows of a query (Appendix C
/// layout): system prompt, "Answer the below query:" + user prompt, then
/// the "Given the following data:" header.
std::string render_instruction_prefix(const PromptTemplate& tmpl);

/// JSON rendering of row `row` of `t` with keys in `field_order` (indices
/// into t's schema).
std::string render_row_json(const table::Table& t, std::size_t row,
                            std::span<const std::size_t> field_order);

/// Full prompt text for one row.
std::string render_prompt(const PromptTemplate& tmpl, const table::Table& t,
                          std::size_t row,
                          std::span<const std::size_t> field_order);

/// The tokens of every row's JSON rendering, by segment: per field its
/// `"key":"` segment, per (field, code) the escaped value plus its closing
/// `"`. The tokenizer makes each punctuation byte a token of its own and
/// every segment starts right after one, so a row's tokens are exactly
/// `{`, its segments separated by `,`, and `}`. Borrows `codes`.
class RowSegments {
 public:
  explicit RowSegments(const core::EncodedTable& codes);

  const core::EncodedTable& codes() const { return *codes_; }

  /// Number of tokens of render_row_json(codes().table(), row, fo).
  std::size_t count(std::size_t row, std::span<const std::size_t> fo) const;

  /// Append those tokens to `out`. `after_space`: the row follows text
  /// that ends in whitespace, which the tokenizer folds into the `{`.
  void append(std::size_t row, std::span<const std::size_t> fo,
              tokenizer::TokenSeq& out, bool after_space = false) const;

 private:
  std::span<const tokenizer::TokenId> value(std::size_t row,
                                            std::size_t col) const {
    const std::uint32_t slot = value_base_[col] + codes_->code(row, col);
    return {values_.data() + value_at_[slot],
            values_.data() + value_at_[slot + 1]};
  }

  const core::EncodedTable* codes_;
  std::vector<tokenizer::TokenId> keys_;      // per field: `"key":"`
  std::vector<std::uint32_t> key_at_;         // field f: [key_at_[f], key_at_[f+1])
  std::vector<tokenizer::TokenId> values_;    // per (field, code): `value"`
  std::vector<std::uint32_t> value_at_;       // slot s: [value_at_[s], value_at_[s+1])
  std::vector<std::uint32_t> value_base_;     // per field: its first slot
  tokenizer::TokenId open_, space_open_, comma_, close_;
};

/// One table's encoded view for one run: its dictionary codes and its
/// prompt segments, each built by the first call that needs it. The
/// components of a run share one view, so a table is encoded once per
/// run and never at set-up. A view binds to the table it is constructed
/// with, or else to the first table it is asked for, and throws
/// std::invalid_argument when asked for any other table.
class EncodedView {
 public:
  EncodedView() = default;
  explicit EncodedView(const table::Table& t) : table_(&t) {}
  EncodedView(const EncodedView&) = delete;
  EncodedView& operator=(const EncodedView&) = delete;

  const core::EncodedTable& codes(const table::Table& t);
  const RowSegments& segments(const table::Table& t);

 private:
  void bind(const table::Table& t);

  const table::Table* table_ = nullptr;
  std::optional<core::EncodedTable> codes_;
  std::optional<RowSegments> segments_;
};

/// Tokenized prompts: the instruction prefix, encoded once, followed by the
/// row's segments from an encoded view.
class PromptEncoder {
 public:
  /// `view` is the run's shared view; null gives the encoder a view of its
  /// own, bound to the first table it encodes.
  PromptEncoder(PromptTemplate tmpl,
                std::shared_ptr<EncodedView> view = nullptr);

  /// The tokens of render_prompt(tmpl, t, row, field_order). Throws
  /// std::invalid_argument when `t` is not the view's table.
  tokenizer::TokenSeq encode(const table::Table& t, std::size_t row,
                             std::span<const std::size_t> field_order) const;

  std::size_t instruction_tokens() const { return prefix_tokens_.size(); }

 private:
  tokenizer::TokenSeq prefix_tokens_;
  std::shared_ptr<EncodedView> view_;
};

}  // namespace llmq::query
