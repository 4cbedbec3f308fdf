#include "tokenizer/tokenizer.hpp"

#include <algorithm>
#include <array>

#include "util/rng.hpp"
#include "util/token_ops.hpp"

namespace llmq::tokenizer {

namespace {

/// Longest piece an alphanumeric run is cut into.
constexpr std::size_t kMaxPieceChars = 6;

enum ByteClass : unsigned char { kPunct, kAlnum, kSpace };

/// The "C" locale's isalnum/isspace classes; every other byte, including
/// all bytes >= 0x80, is punctuation.
constexpr std::array<ByteClass, 256> kByteClass = [] {
  std::array<ByteClass, 256> t{};
  for (int c = '0'; c <= '9'; ++c) t[c] = kAlnum;
  for (int c = 'A'; c <= 'Z'; ++c) t[c] = kAlnum;
  for (int c = 'a'; c <= 'z'; ++c) t[c] = kAlnum;
  for (const char c : {' ', '\t', '\n', '\v', '\f', '\r'})
    t[static_cast<unsigned char>(c)] = kSpace;
  return t;
}();

/// FNV state after hashing a leading ' ': a space-prefixed piece continues
/// from here, so its id is hash64(" " + piece) without building that
/// string.
constexpr std::uint64_t kSpaceState =
    util::fnv1a_step(util::kFnvOffsetBasis, ' ');

constexpr TokenId finish(std::uint64_t h) {
  return static_cast<TokenId>(util::hash64_finish(h));
}

/// Ids of every one-byte piece, bare and space-prefixed: the punctuation
/// tokens.
constexpr auto byte_ids(std::uint64_t seed) {
  std::array<TokenId, 256> ids{};
  for (int c = 0; c < 256; ++c)
    ids[c] = finish(util::fnv1a_step(seed, static_cast<unsigned char>(c)));
  return ids;
}
constexpr std::array<TokenId, 256> kByteId = byte_ids(util::kFnvOffsetBasis);
constexpr std::array<TokenId, 256> kSpaceByteId = byte_ids(kSpaceState);

}  // namespace

// One pass over the bytes. Whitespace runs collapse into a space prefix on
// the next token; each punctuation byte is its own token; an alphanumeric
// run is cut into pieces of at most kMaxPieceChars bytes, each hashed as it
// is read.
template <typename Emit>
void Tokenizer::tokenize(std::string_view text, Emit&& emit) const {
  const auto* p = reinterpret_cast<const unsigned char*>(text.data());
  const auto* const end = p + text.size();
  bool pending_space = false;
  while (p < end) {
    const unsigned char c = *p;
    switch (kByteClass[c]) {
      case kSpace:
        pending_space = true;
        do ++p;
        while (p < end && kByteClass[*p] == kSpace);
        break;
      case kPunct:
        emit(pending_space ? kSpaceByteId[c] : kByteId[c]);
        pending_space = false;
        ++p;
        break;
      case kAlnum: {
        std::uint64_t h = pending_space ? kSpaceState : util::kFnvOffsetBasis;
        pending_space = false;
        std::size_t len = 0;
        do {
          if (len == kMaxPieceChars) {
            emit(finish(h));
            h = util::kFnvOffsetBasis;
            len = 0;
          }
          h = util::fnv1a_step(h, *p);
          ++len;
          ++p;
        } while (p < end && kByteClass[*p] == kAlnum);
        emit(finish(h));
        break;
      }
    }
  }
}

TokenSeq Tokenizer::encode(std::string_view text) const {
  TokenSeq out;
  encode_append(text, out);
  return out;
}

std::size_t Tokenizer::count(std::string_view text) const {
  std::size_t n = 0;
  tokenize(text, [&](TokenId) { ++n; });
  return n;
}

void Tokenizer::encode_append(std::string_view text, TokenSeq& out) const {
  // Every token covers at least one byte, so text.size() bounds the ids
  // appended: write them unchecked into a per-thread buffer of that size,
  // then grow `out` once.
  thread_local TokenSeq scratch;
  if (scratch.size() < text.size()) scratch.resize(text.size());
  TokenId* last = scratch.data();
  tokenize(text, [&](TokenId id) { *last++ = id; });
  out.insert(out.end(), scratch.data(), last);
}

const Tokenizer& global_tokenizer() {
  static const Tokenizer tok;
  return tok;
}

bool ends_in_space(std::string_view text) {
  return !text.empty() &&
         kByteClass[static_cast<unsigned char>(text.back())] == kSpace;
}

std::size_t common_prefix_len(const TokenSeq& a, const TokenSeq& b) {
  const std::size_t n = std::min(a.size(), b.size());
  return util::token_ops::lcp(a.data(), b.data(), n);
}

}  // namespace llmq::tokenizer
