#pragma once
// Cell values.
//
// All table cells are stored as strings: the LLM operator ultimately
// serializes every cell into prompt text, and the reordering algorithms
// only need exact-equality and token length. Typed accessors parse on
// demand for the relational operators (aggregation, numeric filters).

#include <cstdint>
#include <optional>
#include <string>
#include <string_view>

namespace llmq::table {

/// Parse helpers; return nullopt on malformed input rather than throwing,
/// since analytics data is routinely dirty.
std::optional<std::int64_t> parse_int(std::string_view s);
std::optional<double> parse_double(std::string_view s);

}  // namespace llmq::table
