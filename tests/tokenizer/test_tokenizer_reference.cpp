// The vocabulary is pinned: every id the tokenizer emits must equal the
// one produced by the original, straightforward implementation below
// (locale classifiers, one util::hash64 per piece string). Prefix caching,
// the golden benches and every planner length depend on these ids, so the
// optimized tokenizer is checked against this spec byte for byte.

#include <gtest/gtest.h>

#include <algorithm>
#include <cctype>
#include <stdexcept>
#include <string>
#include <string_view>
#include <vector>

#include "tokenizer/tokenizer.hpp"
#include "util/rng.hpp"

namespace llmq::tokenizer {
namespace {

// ---- Reference implementation (kept verbatim; do not optimize). ----

enum class CharClass { Alnum, Space, Punct };

CharClass classify(unsigned char c) {
  if (std::isalnum(c)) return CharClass::Alnum;
  if (std::isspace(c)) return CharClass::Space;
  return CharClass::Punct;
}

TokenId piece_id(std::string_view piece) {
  return static_cast<TokenId>(util::hash64(piece.data(), piece.size()));
}

template <typename Sink>
void tokenize_pieces(const TokenizerOptions& opts_, std::string_view text,
                     Sink&& sink) {
  std::size_t i = 0;
  const std::size_t n = text.size();
  bool pending_space = false;
  while (i < n) {
    const CharClass cls = classify(static_cast<unsigned char>(text[i]));
    if (cls == CharClass::Space) {
      // Collapse runs of whitespace into a space-prefix on the next token
      // (or a standalone token when space_prefix is off).
      std::size_t j = i;
      while (j < n && classify(static_cast<unsigned char>(text[j])) ==
                          CharClass::Space)
        ++j;
      if (opts_.space_prefix) {
        pending_space = true;
      } else {
        sink(text.substr(i, 1));
      }
      i = j;
      continue;
    }
    if (cls == CharClass::Punct) {
      // Each punctuation char is its own token (absorbing a pending space).
      if (pending_space) {
        char buf[2] = {' ', text[i]};
        sink(std::string_view(buf, 2));
        pending_space = false;
      } else {
        sink(text.substr(i, 1));
      }
      ++i;
      continue;
    }
    // Alphanumeric run.
    std::size_t j = i;
    while (j < n &&
           classify(static_cast<unsigned char>(text[j])) == CharClass::Alnum)
      ++j;
    std::size_t pos = i;
    bool first_piece = true;
    while (pos < j) {
      const std::size_t take = std::min(opts_.max_piece_chars, j - pos);
      if (first_piece && pending_space) {
        std::string with_space;
        with_space.reserve(take + 1);
        with_space += ' ';
        with_space.append(text.substr(pos, take));
        sink(std::string_view(with_space));
        pending_space = false;
      } else {
        sink(text.substr(pos, take));
      }
      first_piece = false;
      pos += take;
    }
    i = j;
  }
}

/// Reference encoding. Never call with max_piece_chars == 0: the
/// original loops forever on it (the Tokenizer constructor rejects it).
TokenSeq reference_encode(std::string_view text, const TokenizerOptions& opts) {
  TokenSeq out;
  tokenize_pieces(opts, text,
                  [&](std::string_view piece) { out.push_back(piece_id(piece)); });
  return out;
}

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
/// sit on and next to multiples of max_piece (where a run splits).
std::string random_text(util::Rng& rng, std::size_t max_piece) {
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
            1, static_cast<std::int64_t>(k * max_piece) + rng.next_range(-1, 1)));
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

struct Config {
  std::size_t max_piece_chars;
  bool space_prefix;
};

class TokenizerMatchesReference : public ::testing::TestWithParam<Config> {
 protected:
  TokenizerOptions options() const {
    TokenizerOptions o;
    o.max_piece_chars = GetParam().max_piece_chars;
    o.space_prefix = GetParam().space_prefix;
    return o;
  }

  void expect_matches(const Tokenizer& tok, const std::string& text) const {
    const TokenSeq want = reference_encode(text, options());
    EXPECT_EQ(tok.encode(text), want);
    EXPECT_EQ(tok.count(text), want.size());
    // Appending keeps what is already there.
    TokenSeq appended = {7, 8, 9};
    tok.encode_append(text, appended);
    TokenSeq expected = {7, 8, 9};
    expected.insert(expected.end(), want.begin(), want.end());
    EXPECT_EQ(appended, expected);
  }
};

TEST_P(TokenizerMatchesReference, OnRandomByteStrings) {
  const Tokenizer tok(options());
  util::Rng rng(0x70c3 + GetParam().max_piece_chars * 2 +
                (GetParam().space_prefix ? 1 : 0));
  for (int trial = 0; trial < 400; ++trial) {
    const std::string text = random_text(rng, GetParam().max_piece_chars);
    SCOPED_TRACE(::testing::Message() << "trial " << trial);
    expect_matches(tok, text);
  }
}

TEST_P(TokenizerMatchesReference, OnEveryByteValue) {
  const Tokenizer tok(options());
  std::string bytes = all_bytes();
  expect_matches(tok, bytes);
  std::reverse(bytes.begin(), bytes.end());
  expect_matches(tok, bytes);
  expect_matches(tok, "");
}

INSTANTIATE_TEST_SUITE_P(
    Options, TokenizerMatchesReference,
    ::testing::Values(Config{1, true}, Config{6, true}, Config{16, true},
                      Config{1, false}, Config{6, false}, Config{16, false}),
    [](const ::testing::TestParamInfo<Config>& info) {
      return "max" + std::to_string(info.param.max_piece_chars) +
             (info.param.space_prefix ? "_prefix" : "_noprefix");
    });

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

TEST(TokenizerKnownAnswers, NoSpacePrefixShortPieces) {
  TokenizerOptions o;
  o.space_prefix = false;
  o.max_piece_chars = 3;
  EXPECT_EQ(Tokenizer(o).encode("  Hello,\tworld 12345"),
            (TokenSeq{2803090610u, 2672084789u, 1604723033u, 1179495392u,
                      2319370977u, 2509203126u, 2873453824u, 2803090610u,
                      2322992349u, 2101073905u}));
}

}  // namespace
}  // namespace llmq::tokenizer
