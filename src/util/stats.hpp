#pragma once
// Descriptive statistics and bootstrap resampling.
//
// The accuracy experiment (paper Fig. 6) reports exact-match accuracy
// bootstrapped over 10,000 resamples: `bootstrap_mean` resamples the 0/1
// scores deterministically, and the figure reads the median of the
// resampled accuracies with its 95% interval.

#include <cstddef>
#include <cstdint>
#include <span>
#include <vector>

#include "util/rng.hpp"

namespace llmq::util {

double mean(std::span<const double> xs);
double median(std::vector<double> xs);  // by value: sorts a copy

/// Linear-interpolated percentile, p in [0, 100].
double percentile(std::vector<double> xs, double p);

/// Same statistic over an ALREADY-SORTED sample — no copy, no sort. For
/// call sites that take many percentiles of one sample (latency
/// summaries), sort once and read them all through this; the arithmetic
/// is identical to percentile(), so the results are bit-identical.
double percentile_sorted(std::span<const double> sorted, double p);

struct BootstrapResult {
  double median = 0.0;   // of the resampled statistics
  double ci_low = 0.0;   // 2.5th percentile of the bootstrap distribution
  double ci_high = 0.0;  // 97.5th percentile
  std::vector<double> samples;  // one statistic per resample
};

/// Bootstrap the mean of `xs` (accuracy == mean of 0/1 exact-match
/// scores): `n_resamples` draws with replacement. Throws
/// std::invalid_argument on an empty sample.
BootstrapResult bootstrap_mean(std::span<const double> xs,
                               std::size_t n_resamples, Rng& rng);

}  // namespace llmq::util
