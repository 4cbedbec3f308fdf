#pragma once
// Greedy Group Recursion (paper §4.2, Algorithm 1).
//
// GGR approximates OPHR: at each step it scans every (field, distinct
// value) group, scores each with HITCOUNT — the group's expected PHC
// contribution including fields functionally tied to the group's field —
// and greedily commits to the best group. It recurses row-wise on the rows
// outside the group and column-wise on the group's rows minus the chosen
// field(s). Early stopping by recursion depth or HITCOUNT threshold
// (§4.2.2) bounds the work; stopped sub-tables fall back to a fixed field
// ordering ranked by table statistics with a lexicographic row sort.
//
// Functional dependencies (§4.2.1) serve two purposes: the chosen field's
// FD closure is placed directly after it in the per-row field order (those
// values repeat whenever the chosen value repeats, if the FD holds), and
// the closure is excluded from deeper recursion, shrinking the search.
//
// Algorithm 1 fidelity notes (see DESIGN.md §7): line 29's emitted list is
// implemented as [group rows (value + FD fields first)] ++ [other rows];
// HITCOUNT squares inferred-column lengths by default so the score is in
// PHC units (set `square_inferred_lengths=false` for the literal line 6).
//
// The solver runs on dictionary codes (core/encoded_table.hpp): groups are
// code runs, lengths come from the dictionary, and value order is code
// order, so it plans exactly what a string-keyed GGR plans.

#include <cstdint>
#include <span>
#include <vector>

#include "core/encoded_table.hpp"
#include "core/ordering.hpp"
#include "core/phc.hpp"
#include "table/fd.hpp"
#include "table/table.hpp"

namespace llmq::core {

struct GgrOptions {
  LengthMeasure measure = LengthMeasure::Tokens;

  /// Max row-wise recursion depth (sub-table of rows *outside* the chosen
  /// group); <0 disables the limit. Paper §6.5 uses 4.
  int max_row_depth = 4;

  /// Max column-wise recursion depth (group rows minus chosen fields);
  /// <0 disables the limit. Paper §6.5 uses 2.
  int max_col_depth = 2;

  /// Stop recursing when the best group's HITCOUNT falls below this
  /// (paper's alternative config uses 1e5). 0 disables.
  double hitcount_threshold = 0.0;

  /// Honor functional dependencies (disable for ablation).
  bool use_fds = true;

  /// Square FD-inferred column lengths inside HITCOUNT (PHC units) rather
  /// than the literal unsquared average of Algorithm 1 line 6.
  bool square_inferred_lengths = true;
};

struct GgrCounters {
  std::size_t recursion_nodes = 0;
  std::size_t groups_scored = 0;
  std::size_t fallbacks = 0;        // early-stop fallback invocations
  std::size_t fd_fields_skipped = 0;  // columns pruned via FD closure
};

struct GgrResult {
  /// Exact PHC of `ordering` (re-measured with the independent metric, not
  /// the greedy's internal estimate — honest under approximate FDs).
  double phc = 0.0;
  /// The greedy objective value S from Algorithm 1 (estimate).
  double estimated_phc = 0.0;
  Ordering ordering;
  GgrCounters counters;
  double solve_seconds = 0.0;
};

/// Plan the rows `rows` of an encoded table (a window; one table row may
/// appear more than once). The ordering's row ids are positions in `rows`,
/// not table rows. Throws std::invalid_argument when `rows` is empty.
GgrResult ggr(const EncodedTable& v, std::span<const std::uint32_t> rows,
              const table::FdSet& fds, const GgrOptions& options = {});

/// Plan a whole table: encodes `t` and plans all of its rows (the
/// ordering's row ids are then table rows). `solve_seconds` includes the
/// encode.
GgrResult ggr(const table::Table& t, const table::FdSet& fds,
              const GgrOptions& options = {});

/// Convenience: no FDs.
GgrResult ggr(const table::Table& t, const GgrOptions& options = {});

}  // namespace llmq::core
