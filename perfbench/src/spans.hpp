#pragma once
// In-memory wall-clock spans recorded around calls into llmq's layers.
//
// A span has a name, a start and end (steady_clock nanoseconds since the
// recorder was created), the index of the span open when it began (its
// parent), and the request or query id it belongs to. Spans are appended
// to a vector while the traced run executes and written out after it.
//
// Self time of a span = its duration minus the durations of its direct
// children. Spans here nest strictly (a child starts and ends inside its
// parent on one thread), so child intervals never overlap and subtracting
// their summed durations is exact.

#include <chrono>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

namespace perfbench {

inline constexpr std::uint32_t kNoParent = 0xFFFFFFFFu;
inline constexpr std::uint64_t kNoId = static_cast<std::uint64_t>(-1);

struct Span {
  const char* name = "";  // static string: a layer-qualified call name
  std::int64_t start_ns = 0;
  std::int64_t end_ns = 0;
  std::uint32_t parent = kNoParent;
  std::uint64_t id = kNoId;
};

class SpanRecorder {
 public:
  SpanRecorder() : epoch_(std::chrono::steady_clock::now()) {}

  std::int64_t now_ns() const {
    return std::chrono::duration_cast<std::chrono::nanoseconds>(
               std::chrono::steady_clock::now() - epoch_)
        .count();
  }

  std::uint32_t open(const char* name, std::uint64_t id) {
    const auto index = static_cast<std::uint32_t>(spans_.size());
    spans_.push_back({name, now_ns(), 0,
                      stack_.empty() ? kNoParent : stack_.back(), id});
    stack_.push_back(index);
    return index;
  }
  void close(std::uint32_t index) {
    spans_[index].end_ns = now_ns();
    stack_.pop_back();
  }

  /// A child span whose interval is known only as a duration measured
  /// inside the library (the planner's solve_seconds): recorded under the
  /// open span, ending at the current instant.
  void add_measured_child(const char* name, double seconds, std::uint64_t id);

  const std::vector<Span>& spans() const { return spans_; }
  void clear() {
    spans_.clear();
    stack_.clear();
  }

  /// Write the spans as CSV (name,start_ns,end_ns,parent,id); parent and
  /// id are -1 when absent. Returns false when the file cannot be written.
  bool dump_csv(const std::string& path) const;

 private:
  std::chrono::steady_clock::time_point epoch_;
  std::vector<Span> spans_;
  std::vector<std::uint32_t> stack_;
};

/// RAII span. A null recorder records nothing, so the same composed code
/// path serves the traced run and the plain call sequence.
class Scoped {
 public:
  Scoped(SpanRecorder* rec, const char* name, std::uint64_t id = kNoId)
      : rec_(rec), index_(rec ? rec->open(name, id) : 0) {}
  ~Scoped() {
    if (rec_) rec_->close(index_);
  }
  Scoped(const Scoped&) = delete;
  Scoped& operator=(const Scoped&) = delete;

 private:
  SpanRecorder* rec_;
  std::uint32_t index_;
};

struct SelfTimes {
  /// Span name -> summed self seconds.
  std::map<std::string, double> self_s;
  /// Summed duration of top-level (parentless) spans.
  double top_level_s = 0.0;
};

SelfTimes self_times(const std::vector<Span>& spans);

}  // namespace perfbench
