#pragma once
// Small string helpers shared across modules.

#include <string>
#include <string_view>
#include <vector>

namespace llmq::util {

std::vector<std::string> split(std::string_view s, char sep);
std::string join(const std::vector<std::string>& parts, std::string_view sep);
std::string_view trim(std::string_view s);
bool starts_with(std::string_view s, std::string_view prefix);
bool contains(std::string_view haystack, std::string_view needle);

/// Format a double with fixed decimals (locale-independent).
std::string fmt(double v, int decimals);

}  // namespace llmq::util
