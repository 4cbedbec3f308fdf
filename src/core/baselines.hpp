#pragma once
// Baseline orderings (paper §6.1.3). GGR's early-stop fallback (§4.2.2)
// ranks a sub-view's fields the way stats_fixed_ordering ranks a table's
// (core/ggr.cpp).

#include "core/ordering.hpp"
#include "table/stats.hpp"
#include "table/table.hpp"
#include "util/rng.hpp"

namespace llmq::core {

/// "Cache (Original)" / "No Cache": data exactly as stored — original row
/// order, schema field order.
Ordering original_ordering(const table::Table& t);

/// Fixed field ordering ranked by expected PHC contribution
/// (E[len_tokens]^2 * (n/cardinality - 1), table/stats.hpp), with rows
/// sorted lexicographically under that field priority: a strong fixed-order
/// baseline.
Ordering stats_fixed_ordering(const table::Table& t);

/// Rows sorted lexicographically with the *original* field order (ablation:
/// isolates "sorting helps" from "field choice helps").
Ordering sorted_original_fields(const table::Table& t);

/// Uniformly random row order and per-row field orders (tests, worst case).
Ordering random_ordering(const table::Table& t, util::Rng& rng);

}  // namespace llmq::core
