#pragma once
// Vectorized token-sequence kernels — the per-token inner loops of the
// prefix cache (RadixTree block matching, block hashing) and tokenizer
// (longest-common-prefix). Three kernels:
//
//   * lcp(a, b, n)   — length of the longest common prefix of two runs;
//   * equal(a, b, n) — whole-run equality (the radix block compare);
//   * hash(d, n)     — 64-bit block hash (the radix child-table index).
//
// Each has a scalar reference implementation (namespace scalar) that IS
// the specification, and SIMD forms (AVX2 / NEON) that are bit-identical
// to it by construction — the dispatched entry points below pick the
// widest ISA the host supports (util/simd.hpp) and the equivalence is
// property-pinned over randomized lengths and alignments in
// tests/util/test_token_ops.cpp.
//
// The hash is designed to vectorize EXACTLY: thirty-two independent
// 32-bit FNV-1a lanes, lane L folding tokens L, L+32, L+64, ...,
// finalized by folding the lane states and the length through 64-bit
// FNV-1a. Lane-striding makes the scalar and SIMD loops compute the same
// recurrences in the same order per lane; 32-bit lane multiplies wrap
// identically everywhere. Thirty-two lanes (not a single vector's worth)
// is deliberate: each FNV step is a serial xor→multiply chain, so an
// 8-lane spec would leave AVX2 latency-bound on one vpmulld chain —
// four 256-bit accumulators running four independent chains keep the
// multiplier pipeline full, and because lane groups are contiguous
// (tokens i..i+7 with i % 8 == 0 always land in one accumulator), runs as
// short as one vector still take the vector path. Zero-length input is
// legal (a pure length-seeded constant); the data pointer is never
// dereferenced then.

#include <cstddef>
#include <cstdint>
#include <span>

namespace llmq::util::token_ops {

using Token = std::uint32_t;

/// Dispatched entry points (widest supported ISA; scalar otherwise).
std::size_t lcp(const Token* a, const Token* b, std::size_t n);
bool equal(const Token* a, const Token* b, std::size_t n);
std::uint64_t hash(const Token* d, std::size_t n);

inline std::size_t lcp(std::span<const Token> a, std::span<const Token> b) {
  const std::size_t n = a.size() < b.size() ? a.size() : b.size();
  return lcp(a.data(), b.data(), n);
}
inline bool equal(std::span<const Token> a, std::span<const Token> b) {
  return a.size() == b.size() && equal(a.data(), b.data(), a.size());
}
inline std::uint64_t hash(std::span<const Token> d) {
  return hash(d.data(), d.size());
}

/// Scalar reference path — the specification the SIMD paths must match
/// bit-for-bit. Always compiled; exported for the property tests and the
/// microbench A/B comparison.
namespace scalar {
std::size_t lcp(const Token* a, const Token* b, std::size_t n);
bool equal(const Token* a, const Token* b, std::size_t n);
std::uint64_t hash(const Token* d, std::size_t n);
}  // namespace scalar

#if (defined(__x86_64__) || defined(__i386__)) && \
    (defined(__GNUC__) || defined(__clang__))
#define LLMQ_TOKEN_OPS_AVX2 1
/// AVX2 path (compiled via target attribute; only CALL these when
/// simd::active_isa() == Isa::Avx2 — exported for the property tests).
namespace avx2 {
std::size_t lcp(const Token* a, const Token* b, std::size_t n);
bool equal(const Token* a, const Token* b, std::size_t n);
std::uint64_t hash(const Token* d, std::size_t n);
}  // namespace avx2
#endif

#if defined(__aarch64__) || defined(__ARM_NEON)
#define LLMQ_TOKEN_OPS_NEON 1
namespace neon {
std::size_t lcp(const Token* a, const Token* b, std::size_t n);
bool equal(const Token* a, const Token* b, std::size_t n);
std::uint64_t hash(const Token* d, std::size_t n);
}  // namespace neon
#endif

}  // namespace llmq::util::token_ops
