#include "spans.hpp"

#include <cmath>
#include <cstdio>

namespace perfbench {

void SpanRecorder::add_measured_child(const char* name, double seconds,
                                      std::uint64_t id) {
  const std::int64_t end = now_ns();
  const auto dur = static_cast<std::int64_t>(std::llround(seconds * 1e9));
  spans_.push_back({name, end - dur, end,
                    stack_.empty() ? kNoParent : stack_.back(), id});
}

bool SpanRecorder::dump_csv(const std::string& path) const {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (!f) return false;
  std::fprintf(f, "name,start_ns,end_ns,parent,id\n");
  for (const Span& s : spans_) {
    const long long parent = s.parent == kNoParent ? -1 : s.parent;
    const long long id = s.id == kNoId ? -1 : static_cast<long long>(s.id);
    std::fprintf(f, "%s,%lld,%lld,%lld,%lld\n", s.name,
                 static_cast<long long>(s.start_ns),
                 static_cast<long long>(s.end_ns), parent, id);
  }
  return std::fclose(f) == 0;
}

SelfTimes self_times(const std::vector<Span>& spans) {
  std::vector<std::int64_t> child_ns(spans.size(), 0);
  for (const Span& s : spans)
    if (s.parent != kNoParent) child_ns[s.parent] += s.end_ns - s.start_ns;
  SelfTimes out;
  for (std::size_t i = 0; i < spans.size(); ++i) {
    const Span& s = spans[i];
    const std::int64_t dur = s.end_ns - s.start_ns;
    out.self_s[s.name] += static_cast<double>(dur - child_ns[i]) * 1e-9;
    if (s.parent == kNoParent)
      out.top_level_s += static_cast<double>(dur) * 1e-9;
  }
  return out;
}

}  // namespace perfbench
