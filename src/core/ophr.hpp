#pragma once
// Optimal Prefix Hit Recursion (paper §4.1).
//
// Exact solver: considers, at every step, every (field, distinct value)
// group; splits the table into (rows without the value, all fields) and
// (rows with the value, remaining fields); and takes the best total. The
// complexity is exponential in table size — the paper notes a 10-row table
// can take minutes — so the solver carries a budget of sub-problems and
// reports failure instead of running unbounded. The paper caps it at 2 h
// of wall clock (Appendix D.1); a node budget gives up on the same input
// on every host, so the solver stays a pure function of its input.
// Sub-problems are memoized on (row set, field set), which makes the
// small instances used for validation tractable.

#include <optional>

#include "core/encoded_table.hpp"
#include "core/ordering.hpp"
#include "core/phc.hpp"
#include "table/table.hpp"

namespace llmq::core {

struct OphrOptions {
  LengthMeasure measure = LengthMeasure::Tokens;
  /// Give up after solving this many sub-problems (memo hits included,
  /// as in `nodes_explored`); 0 means no limit.
  std::size_t max_nodes = 0;
};

struct OphrResult {
  double phc = 0.0;    // the solver's computed optimum S
  Ordering ordering;   // a schedule achieving at least S
  std::size_t nodes_explored = 0;
  std::size_t memo_hits = 0;
  double solve_seconds = 0.0;
};

/// Returns nullopt iff the node budget ran out.
std::optional<OphrResult> ophr(const EncodedTable& v,
                               const OphrOptions& options = {});

/// Encodes `t`, then solves it; `solve_seconds` includes the encode.
std::optional<OphrResult> ophr(const table::Table& t,
                               const OphrOptions& options = {});

}  // namespace llmq::core
