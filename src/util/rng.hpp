#pragma once
// Deterministic, seedable random number generation used throughout llmq.
//
// All stochastic components of the library (dataset generators, the
// accuracy task-model channel, bootstrap resampling) draw from Rng so that
// every experiment is reproducible from a single 64-bit seed.

#include <cstdint>
#include <vector>

namespace llmq::util {

inline constexpr std::uint64_t kSplitmixGamma = 0x9e3779b97f4a7c15ULL;

/// splitmix64's output function: a bijective avalanche of one word.
constexpr std::uint64_t splitmix64_mix(std::uint64_t z) {
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
  return z ^ (z >> 31);
}

/// splitmix64: used to derive well-mixed seeds from small integers.
inline std::uint64_t splitmix64(std::uint64_t& state) {
  return splitmix64_mix(state += kSplitmixGamma);
}

/// hash64 of a byte string is two steps, exposed so a caller can hash
/// bytes where they lie (the tokenizer hashes each piece in place):
///   h = kFnvOffsetBasis; for each byte b: h = fnv1a_step(h, b);
///   return hash64_finish(h);
inline constexpr std::uint64_t kFnvOffsetBasis = 0xcbf29ce484222325ULL;

/// One FNV-1a round: fold byte `b` into state `h`.
constexpr std::uint64_t fnv1a_step(std::uint64_t h, unsigned char b) {
  return (h ^ b) * 0x100000001b3ULL;  // FNV prime
}

/// Final avalanche so short strings spread over all 64 bits (one
/// splitmix64 draw seeded with the FNV state).
constexpr std::uint64_t hash64_finish(std::uint64_t h) {
  return splitmix64_mix(h + kSplitmixGamma);
}

/// Stable 64-bit hash of a byte string (FNV-1a, then mixed).
/// Used wherever a deterministic value must be derived from text
/// (tokenizer vocabulary ids, embedding feature hashing, task-model labels).
std::uint64_t hash64(const void* data, std::size_t len);
std::uint64_t hash64(std::uint64_t x);

/// Combine two hashes (order-sensitive).
std::uint64_t hash_combine(std::uint64_t a, std::uint64_t b);

/// xoshiro256** PRNG. Small, fast, and fully deterministic across
/// platforms (unlike std::mt19937 + std::uniform_*_distribution, whose
/// distributions are implementation-defined).
class Rng {
 public:
  explicit Rng(std::uint64_t seed = 0x9e3779b97f4a7c15ULL);

  std::uint64_t next_u64();

  /// Uniform in [0, n). n must be > 0.
  std::uint64_t next_below(std::uint64_t n);

  /// Uniform in [lo, hi] inclusive. Requires lo <= hi.
  std::int64_t next_range(std::int64_t lo, std::int64_t hi);

  /// Uniform in [0, 1).
  double next_double();

  /// Bernoulli trial.
  bool next_bool(double p_true);

  /// Standard normal via Box-Muller (deterministic pairing).
  double next_gaussian();

  /// Fisher-Yates shuffle.
  template <typename T>
  void shuffle(std::vector<T>& v) {
    if (v.empty()) return;
    for (std::size_t i = v.size() - 1; i > 0; --i) {
      const std::size_t j = static_cast<std::size_t>(next_below(i + 1));
      using std::swap;
      swap(v[i], v[j]);
    }
  }

  /// Derive an independent child stream; children with distinct tags are
  /// statistically independent of each other and of the parent.
  Rng fork(std::uint64_t tag) const;

 private:
  std::uint64_t s_[4];
  bool has_spare_gaussian_ = false;
  double spare_gaussian_ = 0.0;
};

}  // namespace llmq::util
