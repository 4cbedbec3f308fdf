// Property: a row's tokens assembled from its segments equal the tokens of
// its rendered JSON under the reference tokenizer, for any bytes in keys
// and values, any field order, and after text that ends in whitespace (a
// session turn's label). render_row_json stays the specification.

#include <gtest/gtest.h>

#include <numeric>
#include <string>
#include <vector>

#include "../tokenizer/reference_tokenizer.hpp"
#include "query/prompt.hpp"
#include "util/rng.hpp"

namespace llmq::query {
namespace {

using tokenizer::reference_encode;
using tokenizer::TokenSeq;

/// Random bytes, weighted toward what segmenting must get right: quotes,
/// backslashes, control bytes, bytes >= 0x80, whitespace at either end.
std::string random_value(util::Rng& rng) {
  static const std::string kSpecial = std::string("\"\\\n\t\r\b\f\x01\x1f\x7f", 11) +
                                      "\x80\xc3\xa9\xff {},:";
  std::string s;
  if (rng.next_below(4) == 0) s += std::string(1 + rng.next_below(3), ' ');
  for (std::size_t n = rng.next_below(12); n > 0; --n) {
    switch (rng.next_below(3)) {
      case 0: s += static_cast<char>(rng.next_below(256)); break;
      case 1: s += kSpecial[rng.next_below(kSpecial.size())]; break;
      default: s += static_cast<char>('a' + rng.next_below(26));
    }
  }
  if (rng.next_below(4) == 0) s += std::string(1 + rng.next_below(3), '\t');
  return s;
}

table::Table random_table(util::Rng& rng, std::size_t rows, std::size_t cols) {
  std::vector<std::string> names;
  for (std::size_t c = 0; c < cols; ++c)
    names.push_back(c == 0 ? std::string("we\"ird key\\") : c == 1 ? "" : random_value(rng) + std::to_string(c));
  table::Table t(table::Schema::of_names(names));
  const std::vector<std::string> pool = {"", " ", "  \n", " lead", "trail ",
                                         random_value(rng), random_value(rng)};
  for (std::size_t r = 0; r < rows; ++r) {
    std::vector<std::string> cells;
    for (std::size_t c = 0; c < cols; ++c)
      cells.push_back(rng.next_below(2) ? pool[rng.next_below(pool.size())]
                                        : random_value(rng));
    t.append_row(std::move(cells));
  }
  return t;
}

TEST(RowSegments, MatchReferenceTokensOfRenderedRows) {
  util::Rng rng(0x5e9);
  for (int trial = 0; trial < 60; ++trial) {
    SCOPED_TRACE(::testing::Message() << "trial " << trial);
    const std::size_t cols = 2 + rng.next_below(4);
    const table::Table t = random_table(rng, 12, cols);
    const core::EncodedTable codes(t);
    const RowSegments segs(codes);
    std::vector<std::size_t> fo(cols);
    std::iota(fo.begin(), fo.end(), 0);
    for (std::size_t r = 0; r < t.num_rows(); ++r) {
      rng.shuffle(fo);
      // Any subset of the fields, the empty order included.
      const std::span<const std::size_t> order(fo.data(), rng.next_below(cols + 1));
      const std::string json = render_row_json(t, r, order);
      TokenSeq got;
      segs.append(r, order, got);
      EXPECT_EQ(got, reference_encode(json));
      EXPECT_EQ(segs.count(r, order), got.size());
      // A session turn: label text ending in whitespace, then the row.
      const std::string label = "\n[tool result 3]\n";
      TokenSeq joined = reference_encode(label);
      segs.append(r, order, joined, tokenizer::ends_in_space(label));
      EXPECT_EQ(joined, reference_encode(label + json));
    }
  }
}

TEST(RowSegments, EmptyFieldOrderIsTheBraces) {
  table::Table t(table::Schema::of_names({"a"}));
  t.append_row({"x"});
  const core::EncodedTable codes(t);
  const RowSegments segs(codes);
  TokenSeq got;
  segs.append(0, {}, got);
  EXPECT_EQ(got, reference_encode("{}"));
}

TEST(PromptEncoder, ThrowsOnAnotherTable) {
  table::Table a(table::Schema::of_names({"x"}));
  a.append_row({"1"});
  const table::Table b = a;
  const PromptEncoder enc(PromptTemplate{"sys", "q"});
  const std::size_t fo[] = {0};
  EXPECT_EQ(enc.encode(a, 0, fo),
            [&] {
              TokenSeq want = tokenizer::global_tokenizer().encode(
                  render_instruction_prefix(PromptTemplate{"sys", "q"}));
              const TokenSeq row = reference_encode(render_row_json(a, 0, fo));
              want.insert(want.end(), row.begin(), row.end());
              return want;
            }());
  EXPECT_THROW(enc.encode(b, 0, fo), std::invalid_argument);
}

}  // namespace
}  // namespace llmq::query
