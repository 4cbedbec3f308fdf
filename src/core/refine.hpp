#pragma once
// Local-search refinement of a request ordering — an extension beyond the
// paper. Given any schedule (original, stats-fixed, GGR), hill-climb with
// two move types until a fixed point or a pass budget:
//
//   * adjacent row swaps that increase PHC (delta evaluated locally —
//     only the three affected adjacency hits change);
//   * pair field realignment: front the set of fields on which two
//     adjacent rows agree in both rows' orders, turning the whole
//     agreement set into a shared positional prefix; kept only if the
//     three affected adjacency hits improve in total.
//
// This quantifies how much of the GGR→OPHR gap cheap local search can
// close (bench_paper's ablation reports GGR vs GGR+refine).

#include "core/ordering.hpp"
#include "core/phc.hpp"

namespace llmq::core {

struct RefineOptions {
  LengthMeasure measure = LengthMeasure::Tokens;
  std::size_t max_passes = 4;   // full sweeps over the schedule
};

struct RefineResult {
  double phc_before = 0.0;
  double phc_after = 0.0;
  Ordering ordering;
  std::size_t moves_applied = 0;
  std::size_t passes = 0;
  double seconds = 0.0;
};

/// Refine `start` for `t`. The result's PHC is never below the input's.
RefineResult refine_ordering(const table::Table& t, Ordering start,
                             const RefineOptions& options = {});

}  // namespace llmq::core
