#pragma once
// Deterministic tokenizer substrate.
//
// The paper's cache operates on LLM token sequences produced by the Llama
// tokenizer. For the simulator what matters is (a) identical strings encode
// to identical token streams — the property prefix caching relies on — and
// (b) a realistic tokens-per-character rate so PHC measured in tokens and
// the serving cost model are sized like the paper's Table 1. We therefore
// implement a greedy word/punctuation splitter with BPE-style subword
// chunking for long words and a stable hashed vocabulary (no vocab file).
//
// The vocabulary is pinned: bytes are classed as in the "C" locale
// (isalnum, isspace, everything else punctuation, bytes >= 0x80
// included), and a piece's id is the low 32 bits of util::hash64 of its
// bytes, the space prefix included. tests/tokenizer holds the reference
// implementation every id is checked against.

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

namespace llmq::tokenizer {

using TokenId = std::uint32_t;

/// Sequence of token ids; equality of two streams implies the underlying
/// text segments were byte-identical (up to 32-bit hash collisions, which
/// are irrelevant at our vocabulary sizes).
using TokenSeq = std::vector<TokenId>;

struct TokenizerOptions {
  /// Longest subword chunk; words longer than this split into pieces,
  /// mimicking BPE behaviour on rare words.
  std::size_t max_piece_chars = 6;
  /// Words following a space carry the space in the token (GPT/Llama-style
  /// "Ġword" pieces), so token boundaries never straddle two fields in a
  /// surprising way.
  bool space_prefix = true;
};

class Tokenizer {
 public:
  /// Throws std::invalid_argument when opts.max_piece_chars is 0.
  explicit Tokenizer(TokenizerOptions opts = {});

  /// Encode text to token ids. Deterministic; no state.
  TokenSeq encode(std::string_view text) const;

  /// Number of tokens `encode(text)` would produce, without materializing.
  std::size_t count(std::string_view text) const;

  /// Append the encoding of `text` to `out`, growing `out` at most once.
  void encode_append(std::string_view text, TokenSeq& out) const;

  const TokenizerOptions& options() const { return opts_; }

 private:
  /// Calls emit(id) for each token of `text`, in order.
  template <typename Emit>
  void tokenize(std::string_view text, Emit&& emit) const;

  TokenizerOptions opts_;
};

/// Process-wide default tokenizer (options identical everywhere so that
/// cache keys agree between the planner and the serving engine).
const Tokenizer& global_tokenizer();

/// Length of the longest common prefix of two token sequences.
std::size_t common_prefix_len(const TokenSeq& a, const TokenSeq& b);

}  // namespace llmq::tokenizer
