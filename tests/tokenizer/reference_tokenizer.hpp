#pragma once
// The tokenizer's reference implementation: locale classifiers and one
// util::hash64 per piece string, the shipped configuration (pieces of at
// most 6 bytes, space prefix on). Tests check the optimized tokenizer and
// every path that assembles token ids without tokenizing against it.

#include <algorithm>
#include <cctype>
#include <string>
#include <string_view>

#include "tokenizer/tokenizer.hpp"
#include "util/rng.hpp"

namespace llmq::tokenizer {

// ---- Reference implementation (kept verbatim; do not optimize). ----

inline constexpr std::size_t kMaxPieceChars = 6;

enum class CharClass { Alnum, Space, Punct };

inline CharClass classify(unsigned char c) {
  if (std::isalnum(c)) return CharClass::Alnum;
  if (std::isspace(c)) return CharClass::Space;
  return CharClass::Punct;
}

inline TokenId piece_id(std::string_view piece) {
  return static_cast<TokenId>(util::hash64(piece.data(), piece.size()));
}

template <typename Sink>
void tokenize_pieces(std::string_view text, Sink&& sink) {
  std::size_t i = 0;
  const std::size_t n = text.size();
  bool pending_space = false;
  while (i < n) {
    const CharClass cls = classify(static_cast<unsigned char>(text[i]));
    if (cls == CharClass::Space) {
      // Collapse runs of whitespace into a space-prefix on the next token.
      std::size_t j = i;
      while (j < n && classify(static_cast<unsigned char>(text[j])) ==
                          CharClass::Space)
        ++j;
      pending_space = true;
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
      const std::size_t take = std::min(kMaxPieceChars, j - pos);
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

inline TokenSeq reference_encode(std::string_view text) {
  TokenSeq out;
  tokenize_pieces(text,
                  [&](std::string_view piece) { out.push_back(piece_id(piece)); });
  return out;
}

}  // namespace llmq::tokenizer
