#include "util/rng.hpp"

#include <cmath>
#include <cstring>

namespace llmq::util {

std::uint64_t hash64(const void* data, std::size_t len) {
  const auto* p = static_cast<const unsigned char*>(data);
  std::uint64_t h = kFnvOffsetBasis;
  for (std::size_t i = 0; i < len; ++i) h = fnv1a_step(h, p[i]);
  return hash64_finish(h);
}

std::uint64_t hash64(std::uint64_t x) {
  std::uint64_t s = x;
  return splitmix64(s);
}

std::uint64_t hash_combine(std::uint64_t a, std::uint64_t b) {
  std::uint64_t s = a ^ (b + kSplitmixGamma + (a << 6) + (a >> 2));
  return splitmix64(s);
}

namespace {
inline std::uint64_t rotl(std::uint64_t x, int k) {
  return (x << k) | (x >> (64 - k));
}
}  // namespace

Rng::Rng(std::uint64_t seed) {
  std::uint64_t sm = seed;
  for (auto& s : s_) s = splitmix64(sm);
}

std::uint64_t Rng::next_u64() {
  const std::uint64_t result = rotl(s_[1] * 5, 7) * 9;
  const std::uint64_t t = s_[1] << 17;
  s_[2] ^= s_[0];
  s_[3] ^= s_[1];
  s_[1] ^= s_[2];
  s_[0] ^= s_[3];
  s_[2] ^= t;
  s_[3] = rotl(s_[3], 45);
  return result;
}

std::uint64_t Rng::next_below(std::uint64_t n) {
  // Lemire's unbiased bounded generation (rejection variant).
  std::uint64_t x = next_u64();
  __uint128_t m = static_cast<__uint128_t>(x) * n;
  auto lo = static_cast<std::uint64_t>(m);
  if (lo < n) {
    const std::uint64_t threshold = (0ULL - n) % n;
    while (lo < threshold) {
      x = next_u64();
      m = static_cast<__uint128_t>(x) * n;
      lo = static_cast<std::uint64_t>(m);
    }
  }
  return static_cast<std::uint64_t>(m >> 64);
}

std::int64_t Rng::next_range(std::int64_t lo, std::int64_t hi) {
  const auto span = static_cast<std::uint64_t>(hi - lo) + 1;
  return lo + static_cast<std::int64_t>(next_below(span));
}

double Rng::next_double() {
  return static_cast<double>(next_u64() >> 11) * 0x1.0p-53;
}

bool Rng::next_bool(double p_true) { return next_double() < p_true; }

double Rng::next_gaussian() {
  if (has_spare_gaussian_) {
    has_spare_gaussian_ = false;
    return spare_gaussian_;
  }
  double u, v, s;
  do {
    u = 2.0 * next_double() - 1.0;
    v = 2.0 * next_double() - 1.0;
    s = u * u + v * v;
  } while (s >= 1.0 || s == 0.0);
  const double mul = std::sqrt(-2.0 * std::log(s) / s);
  spare_gaussian_ = v * mul;
  has_spare_gaussian_ = true;
  return u * mul;
}

Rng Rng::fork(std::uint64_t tag) const {
  return Rng(hash_combine(s_[0] ^ s_[3], hash64(tag)));
}

}  // namespace llmq::util
