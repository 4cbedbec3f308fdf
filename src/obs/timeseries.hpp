#pragma once
// Virtual-time gauge sampling into a columnar buffer.
//
// A trace records transitions; the time series records *levels* — the
// gauges an operator would watch on a dashboard (KV pool occupancy,
// admission-queue depth per class, running prefill/decode counts, the
// rolling prefix hit rate, per-replica outstanding load). Drivers sample
// every replica on a configurable virtual-time interval
// (TraceConfig::sample_interval_seconds); the buffer is a struct of
// parallel column vectors so downstream tooling (and the Perfetto
// counter-track exporter) can slice one metric without touching the
// rest.

#include <array>
#include <cstddef>
#include <cstdint>
#include <vector>

namespace llmq::obs {

/// One replica's instantaneous gauge snapshot (EngineSession::gauges()).
struct GaugeSample {
  std::uint64_t kv_resident_blocks = 0;  // shared cache-resident blocks
                                         // (every tier; GPU share is
                                         // resident - host - disk)
  std::uint64_t kv_host_blocks = 0;      // resident at the host tier
  std::uint64_t kv_disk_blocks = 0;      // resident at the disk tier
  std::uint64_t kv_private_blocks = 0;   // per-request private blocks
  std::uint64_t kv_reserved_blocks = 0;  // chunked-prefill reservations
  std::uint64_t kv_pinned_blocks = 0;    // cache blocks pinned by leases
  std::array<std::uint64_t, 3> pending_by_class = {0, 0, 0};
  std::uint64_t running_prefill = 0;  // admitted, still chunk-prefilling
  std::uint64_t running_decode = 0;   // admitted, decoding
  std::uint64_t parked = 0;           // preempted, awaiting resume
  std::uint64_t outstanding_prompt_tokens = 0;
  double rolling_phr = 0.0;  // cumulative prefix hit rate so far
};

/// Columnar sample buffer: row i is (time[i], replica[i], gauges...).
/// Rows are appended in nondecreasing time order, one row per replica
/// per sample instant.
class TimeSeries {
 public:
  void append(double time, std::uint32_t replica, const GaugeSample& g);

  std::size_t size() const { return time.size(); }
  bool empty() const { return time.empty(); }

  std::vector<double> time;
  std::vector<std::uint32_t> replica;
  std::vector<std::uint64_t> kv_resident_blocks;
  std::vector<std::uint64_t> kv_host_blocks;
  std::vector<std::uint64_t> kv_disk_blocks;
  std::vector<std::uint64_t> kv_private_blocks;
  std::vector<std::uint64_t> kv_reserved_blocks;
  std::vector<std::uint64_t> kv_pinned_blocks;
  std::vector<std::uint64_t> pending_interactive;
  std::vector<std::uint64_t> pending_standard;
  std::vector<std::uint64_t> pending_batch;
  std::vector<std::uint64_t> running_prefill;
  std::vector<std::uint64_t> running_decode;
  std::vector<std::uint64_t> parked;
  std::vector<std::uint64_t> outstanding_prompt_tokens;
  std::vector<double> rolling_phr;
};

/// Interval gate shared by the drivers: fires when the virtual clock
/// crosses the next sample boundary, then skips ahead past `now` (an
/// idle gap yields one sample, not one per elapsed interval).
class SampleClock {
 public:
  SampleClock(TimeSeries* ts, double interval_seconds)
      : ts_(ts), interval_(interval_seconds) {}

  bool due(double now) const {
    return ts_ != nullptr && interval_ > 0.0 && now >= next_;
  }
  void advance_past(double now) {
    while (next_ <= now) next_ += interval_;
  }
  TimeSeries* series() const { return ts_; }
  bool sampling() const { return ts_ != nullptr && interval_ > 0.0; }
  /// The next boundary at which due() will fire. The threaded runtime
  /// cuts its epochs here so workers park exactly at the virtual times
  /// the single-threaded driver would have sampled at — that, plus the
  /// driver being the only thread that ever touches the TimeSeries (the
  /// clock itself is driver-owned and never shared), is what keeps the
  /// gauge columns bit-identical without making this class locked.
  double next_boundary() const { return next_; }

 private:
  TimeSeries* ts_;
  double interval_;
  double next_ = 0.0;
};

}  // namespace llmq::obs
