#include "util/strings.hpp"

#include <gtest/gtest.h>

namespace llmq::util {
namespace {

TEST(Strings, SplitBasic) {
  auto parts = split("a,b,c", ',');
  ASSERT_EQ(parts.size(), 3u);
  EXPECT_EQ(parts[0], "a");
  EXPECT_EQ(parts[2], "c");
}

TEST(Strings, SplitEmptySegments) {
  auto parts = split(",a,,b,", ',');
  ASSERT_EQ(parts.size(), 5u);
  EXPECT_EQ(parts[0], "");
  EXPECT_EQ(parts[2], "");
  EXPECT_EQ(parts[4], "");
}

TEST(Strings, SplitNoSeparator) {
  auto parts = split("abc", ',');
  ASSERT_EQ(parts.size(), 1u);
  EXPECT_EQ(parts[0], "abc");
}

TEST(Strings, JoinRoundTrip) {
  std::vector<std::string> v{"x", "y", "z"};
  EXPECT_EQ(join(v, ", "), "x, y, z");
  EXPECT_EQ(join({}, ","), "");
}

TEST(Strings, Trim) {
  EXPECT_EQ(trim("  hi \t\n"), "hi");
  EXPECT_EQ(trim(""), "");
  EXPECT_EQ(trim("   "), "");
  EXPECT_EQ(trim("x"), "x");
}

TEST(Strings, StartsWithAndContains) {
  EXPECT_TRUE(starts_with("foobar", "foo"));
  EXPECT_FALSE(starts_with("fo", "foo"));
  EXPECT_TRUE(contains("haystack", "sta"));
  EXPECT_FALSE(contains("haystack", "xyz"));
}

TEST(Strings, Fmt) {
  EXPECT_EQ(fmt(3.14159, 2), "3.14");
  EXPECT_EQ(fmt(2.0, 0), "2");
}

}  // namespace
}  // namespace llmq::util
