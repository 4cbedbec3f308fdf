#include "tokenizer/tokenizer.hpp"

#include <gtest/gtest.h>

#include <stdexcept>

namespace llmq::tokenizer {
namespace {

TEST(Tokenizer, Deterministic) {
  const Tokenizer tok;
  const std::string text = "The quick brown fox, 42 times!";
  EXPECT_EQ(tok.encode(text), tok.encode(text));
}

TEST(Tokenizer, EmptyString) {
  const Tokenizer tok;
  EXPECT_TRUE(tok.encode("").empty());
  EXPECT_EQ(tok.count(""), 0u);
}

TEST(Tokenizer, CountMatchesEncode) {
  const Tokenizer tok;
  for (const char* s :
       {"hello world", "a,b,c", "  spaces   everywhere  ", "punct!?.",
        "supercalifragilisticexpialidocious", "x", "42.5% of $100"}) {
    EXPECT_EQ(tok.count(s), tok.encode(s).size()) << s;
  }
}

TEST(Tokenizer, IdenticalStringsShareAllTokens) {
  const Tokenizer tok;
  const auto a = tok.encode("repeatable value");
  const auto b = tok.encode("repeatable value");
  EXPECT_EQ(common_prefix_len(a, b), a.size());
}

TEST(Tokenizer, SharedTextPrefixSharesTokenPrefix) {
  const Tokenizer tok;
  const auto a = tok.encode("SELECT review FROM table one");
  const auto b = tok.encode("SELECT review FROM table two");
  const auto shared = common_prefix_len(a, b);
  EXPECT_GE(shared, 4u);
  EXPECT_LT(shared, a.size());
}

TEST(Tokenizer, DifferentTextsDiverge) {
  const Tokenizer tok;
  const auto a = tok.encode("alpha beta");
  const auto b = tok.encode("gamma delta");
  EXPECT_EQ(common_prefix_len(a, b), 0u);
}

TEST(Tokenizer, LongWordsSplitIntoPieces) {
  const Tokenizer tok;
  // 26 chars, max piece 6 -> ceil(26/6) = 5 tokens.
  EXPECT_EQ(tok.count("abcdefghijklmnopqrstuvwxyz"), 5u);
}

TEST(Tokenizer, WhitespaceRunsCollapse) {
  const Tokenizer tok;
  // Space attaches to the following token; runs collapse to one marker.
  EXPECT_EQ(tok.count("a b"), tok.count("a  b"));
}

TEST(Tokenizer, PunctuationIsSeparate) {
  const Tokenizer tok;
  EXPECT_EQ(tok.count("a"), 1u);
  EXPECT_EQ(tok.count("a."), 2u);
  EXPECT_EQ(tok.count("a.b"), 3u);
}

TEST(Tokenizer, SpacePrefixDistinguishesBoundary) {
  const Tokenizer tok;
  // "ab" as one word differs from "a b": joins can't create false matches.
  EXPECT_NE(tok.encode("ab"), tok.encode("a b"));
}

TEST(Tokenizer, TokensPerCharRealistic) {
  // English-like prose should land near 3-5 chars/token, matching the
  // ratios the paper's Table 1 implies.
  const Tokenizer tok;
  const std::string text =
      "This movie was a delightful surprise with strong performances "
      "and a script that kept the audience engaged from start to finish.";
  const double ratio =
      static_cast<double>(text.size()) / static_cast<double>(tok.count(text));
  EXPECT_GT(ratio, 2.5);
  EXPECT_LT(ratio, 7.0);
}

TEST(Tokenizer, EncodeAppendConcatenates) {
  const Tokenizer tok;
  TokenSeq out;
  tok.encode_append("hello ", out);
  const std::size_t first = out.size();
  tok.encode_append("world", out);
  EXPECT_GT(out.size(), first);
  // Appending in pieces equals encoding whole only when the boundary has
  // no cross-piece space interaction; exact equality for this simple case:
  EXPECT_EQ(out.size(), tok.encode("hello ").size() + tok.encode("world").size());
}

TEST(Tokenizer, CommonPrefixLenEdgeCases) {
  TokenSeq a{1, 2, 3}, b{1, 2, 3, 4}, c{};
  EXPECT_EQ(common_prefix_len(a, b), 3u);
  EXPECT_EQ(common_prefix_len(a, c), 0u);
  EXPECT_EQ(common_prefix_len(c, c), 0u);
}

TEST(Tokenizer, RejectsZeroPieceWidth) {
  // A zero-width piece would never advance through an alphanumeric run.
  TokenizerOptions opts;
  opts.max_piece_chars = 0;
  EXPECT_THROW(Tokenizer{opts}, std::invalid_argument);
}

TEST(Tokenizer, GlobalTokenizerIsStable) {
  EXPECT_EQ(global_tokenizer().encode("stable"),
            global_tokenizer().encode("stable"));
}

}  // namespace
}  // namespace llmq::tokenizer
