// The vocabulary is pinned: every id the tokenizer emits must equal the
// one produced by the original, straightforward implementation in
// reference_tokenizer.hpp
// (locale classifiers, one util::hash64 per piece string), with the
// shipped configuration: pieces of at most 6 bytes, space prefix on.
// Prefix caching, the golden benches and every planner length depend on
// these ids, so the optimized tokenizer is checked against this spec byte
// for byte.

#include <gtest/gtest.h>

#include <algorithm>
#include <cctype>
#include <stdexcept>
#include <string>
#include <string_view>
#include <vector>

#include "reference_tokenizer.hpp"
#include "tokenizer/tokenizer.hpp"
#include "util/rng.hpp"

namespace llmq::tokenizer {
namespace {

// ---- Inputs. ----

constexpr std::string_view kWhitespace = " \t\n\v\f\r";
constexpr std::string_view kAlnum =
    "0123456789ABCDEFGHIJKLMNOPQRSTUVWXYZabcdefghijklmnopqrstuvwxyz";

void append_whitespace_run(util::Rng& rng, std::string& s) {
  for (std::size_t n = 1 + rng.next_below(3); n > 0; --n)
    s += kWhitespace[rng.next_below(kWhitespace.size())];
}

/// Whitespace at both ends; in between, segments of uniformly random bytes
/// (all 256 values), whitespace runs, and alphanumeric runs whose lengths
/// sit on and next to multiples of the piece width (where a run splits).
std::string random_text(util::Rng& rng) {
  std::string s;
  append_whitespace_run(rng, s);
  for (std::size_t parts = 1 + rng.next_below(12); parts > 0; --parts) {
    switch (rng.next_below(3)) {
      case 0:
        for (std::size_t n = 1 + rng.next_below(8); n > 0; --n)
          s += static_cast<char>(rng.next_below(256));
        break;
      case 1: {
        const std::size_t k = 1 + rng.next_below(3);
        const auto len = static_cast<std::size_t>(std::max<std::int64_t>(
            1, static_cast<std::int64_t>(k * kMaxPieceChars) +
                   rng.next_range(-1, 1)));
        for (std::size_t i = 0; i < len; ++i)
          s += kAlnum[rng.next_below(kAlnum.size())];
        break;
      }
      default:
        append_whitespace_run(rng, s);
    }
  }
  append_whitespace_run(rng, s);
  return s;
}

std::string all_bytes() {
  std::string s;
  for (int c = 0; c < 256; ++c) s += static_cast<char>(c);
  return s;
}

// ---- Tests. ----

void expect_matches(const Tokenizer& tok, const std::string& text) {
  const TokenSeq want = reference_encode(text);
  EXPECT_EQ(tok.encode(text), want);
  EXPECT_EQ(tok.count(text), want.size());
  // Appending keeps what is already there.
  TokenSeq appended = {7, 8, 9};
  tok.encode_append(text, appended);
  TokenSeq expected = {7, 8, 9};
  expected.insert(expected.end(), want.begin(), want.end());
  EXPECT_EQ(appended, expected);
}

TEST(TokenizerMatchesReference, OnRandomByteStrings) {
  const Tokenizer tok;
  util::Rng rng(0x70c3 + kMaxPieceChars * 2 + 1);
  for (int trial = 0; trial < 400; ++trial) {
    const std::string text = random_text(rng);
    SCOPED_TRACE(::testing::Message() << "trial " << trial);
    expect_matches(tok, text);
  }
}

TEST(TokenizerMatchesReference, OnEveryByteValue) {
  const Tokenizer tok;
  std::string bytes = all_bytes();
  expect_matches(tok, bytes);
  std::reverse(bytes.begin(), bytes.end());
  expect_matches(tok, bytes);
  expect_matches(tok, "");
}

// Ids captured from the original implementation: a change that moves the
// vocabulary fails here even if the reference above were edited with it.
TEST(TokenizerKnownAnswers, DefaultOptions) {
  const Tokenizer& tok = global_tokenizer();
  EXPECT_EQ(tok.encode(R"({"title":"The Matrix"})"),
            (TokenSeq{3228359973u, 3065939493u, 37886186u, 3065939493u,
                      1023300688u, 3065939493u, 1638797448u, 84108907u,
                      3065939493u, 3121266119u}));
  EXPECT_EQ(tok.encode(" leading space"),
            (TokenSeq{1222619235u, 1362607990u, 769460783u}));
  // UTF-8 "café naïve — ok": every byte >= 0x80 is punctuation.
  EXPECT_EQ(tok.encode("caf\xc3\xa9 na\xc3\xafve \xe2\x80\x94 ok"),
            (TokenSeq{2549346424u, 3979285792u, 54424325u, 3953955424u,
                      3979285792u, 457461687u, 2581422905u, 184817494u,
                      2104706202u, 2033725545u, 1862679750u}));
}

}  // namespace
}  // namespace llmq::tokenizer
