#include "util/stats.hpp"

#include <gtest/gtest.h>

#include <vector>

namespace llmq::util {
namespace {

TEST(Stats, MeanBasics) {
  std::vector<double> xs{1, 2, 3, 4};
  EXPECT_DOUBLE_EQ(mean(xs), 2.5);
  EXPECT_DOUBLE_EQ(mean(std::span<const double>{}), 0.0);
}

TEST(Stats, MedianOddEven) {
  EXPECT_DOUBLE_EQ(median({3, 1, 2}), 2.0);
  EXPECT_DOUBLE_EQ(median({4, 1, 3, 2}), 2.5);
  EXPECT_DOUBLE_EQ(median({}), 0.0);
  EXPECT_DOUBLE_EQ(median({7}), 7.0);
}

TEST(Stats, PercentileInterpolation) {
  std::vector<double> xs{10, 20, 30, 40, 50};
  EXPECT_DOUBLE_EQ(percentile(xs, 0), 10.0);
  EXPECT_DOUBLE_EQ(percentile(xs, 100), 50.0);
  EXPECT_DOUBLE_EQ(percentile(xs, 50), 30.0);
  EXPECT_DOUBLE_EQ(percentile(xs, 25), 20.0);
  EXPECT_DOUBLE_EQ(percentile(xs, 12.5), 15.0);
}

TEST(Bootstrap, MedianDeterministicAndCentered) {
  std::vector<double> xs;
  Rng gen(5);
  for (int i = 0; i < 200; ++i) xs.push_back(10.0 + gen.next_gaussian());
  Rng r1(7), r2(7);
  auto b1 = bootstrap_mean(xs, 1000, r1);
  auto b2 = bootstrap_mean(xs, 1000, r2);
  EXPECT_DOUBLE_EQ(b1.median, b2.median);
  EXPECT_NEAR(b1.median, 10.0, 0.3);
  EXPECT_LT(b1.ci_low, b1.median);
  EXPECT_GT(b1.ci_high, b1.median);
  EXPECT_EQ(b1.samples.size(), 1000u);
}

TEST(Bootstrap, MeanOfBinaryAccuracy) {
  // 70 of 100 exact matches: bootstrap mean should center near 0.70.
  std::vector<double> xs(100, 0.0);
  for (int i = 0; i < 70; ++i) xs[i] = 1.0;
  Rng rng(11);
  auto b = bootstrap_mean(xs, 2000, rng);
  EXPECT_NEAR(b.median, 0.70, 0.03);
  EXPECT_GT(b.ci_high - b.ci_low, 0.05);  // sampling noise visible
}

TEST(Bootstrap, ThrowsOnEmpty) {
  Rng rng(1);
  EXPECT_THROW(bootstrap_mean({}, 10, rng), std::invalid_argument);
}

}  // namespace
}  // namespace llmq::util
