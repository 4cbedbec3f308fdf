#include "table/value.hpp"

#include <cerrno>
#include <cstdlib>

#include "util/strings.hpp"

namespace llmq::table {

std::optional<std::int64_t> parse_int(std::string_view s) {
  s = util::trim(s);
  if (s.empty()) return std::nullopt;
  std::string buf(s);
  errno = 0;
  char* end = nullptr;
  const long long v = std::strtoll(buf.c_str(), &end, 10);
  if (errno != 0 || end != buf.c_str() + buf.size()) return std::nullopt;
  return static_cast<std::int64_t>(v);
}

std::optional<double> parse_double(std::string_view s) {
  s = util::trim(s);
  if (s.empty()) return std::nullopt;
  std::string buf(s);
  errno = 0;
  char* end = nullptr;
  const double v = std::strtod(buf.c_str(), &end);
  if (errno != 0 || end != buf.c_str() + buf.size()) return std::nullopt;
  return v;
}

}  // namespace llmq::table
