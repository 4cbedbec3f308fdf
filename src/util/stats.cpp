#include "util/stats.hpp"

#include <algorithm>
#include <stdexcept>

namespace llmq::util {

double mean(std::span<const double> xs) {
  if (xs.empty()) return 0.0;
  double s = 0.0;
  for (double x : xs) s += x;
  return s / static_cast<double>(xs.size());
}

double median(std::vector<double> xs) {
  if (xs.empty()) return 0.0;
  const std::size_t mid = xs.size() / 2;
  std::nth_element(xs.begin(), xs.begin() + static_cast<std::ptrdiff_t>(mid),
                   xs.end());
  const double hi = xs[mid];
  if (xs.size() % 2 == 1) return hi;
  const double lo =
      *std::max_element(xs.begin(), xs.begin() + static_cast<std::ptrdiff_t>(mid));
  return 0.5 * (lo + hi);
}

double percentile(std::vector<double> xs, double p) {
  std::sort(xs.begin(), xs.end());
  return percentile_sorted(xs, p);
}

double percentile_sorted(std::span<const double> sorted, double p) {
  if (sorted.empty()) return 0.0;
  if (p <= 0.0) return sorted.front();
  if (p >= 100.0) return sorted.back();
  const double rank = p / 100.0 * static_cast<double>(sorted.size() - 1);
  const auto lo = static_cast<std::size_t>(rank);
  const double frac = rank - static_cast<double>(lo);
  if (lo + 1 >= sorted.size()) return sorted[lo];
  return sorted[lo] * (1.0 - frac) + sorted[lo + 1] * frac;
}

BootstrapResult bootstrap_mean(std::span<const double> xs,
                               std::size_t n_resamples, Rng& rng) {
  if (xs.empty()) throw std::invalid_argument("bootstrap: empty sample");
  BootstrapResult out;
  out.samples.reserve(n_resamples);
  std::vector<double> draw(xs.size());
  for (std::size_t i = 0; i < n_resamples; ++i) {
    for (auto& d : draw) d = xs[rng.next_below(xs.size())];
    out.samples.push_back(mean(std::span<const double>(draw)));
  }
  out.median = median(out.samples);
  out.ci_low = percentile(out.samples, 2.5);
  out.ci_high = percentile(out.samples, 97.5);
  return out;
}

}  // namespace llmq::util
