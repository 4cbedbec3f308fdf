#pragma once
// Planner facade.
//
// Benchmarks, examples, and the query executor select a reordering policy
// by name; this facade dispatches to the concrete planner and returns the
// ordering together with solver metadata. It is the single switch point
// for the paper's method axis {No Cache, Cache (Original), Cache (GGR)}
// plus the extra baselines used in ablations.

#include <functional>
#include <optional>
#include <string>

#include "core/encoded_table.hpp"
#include "core/ggr.hpp"
#include "core/ophr.hpp"
#include "core/ordering.hpp"
#include "table/fd.hpp"
#include "table/table.hpp"

namespace llmq::core {

enum class Policy {
  Original,      // data order, schema field order (paper's "Original")
  SortedFixed,   // lexicographic row sort, original field order (ablation)
  StatsFixed,    // stats-ranked fixed field order + row sort (ablation)
  Ggr,           // the paper's contribution
  Ophr,          // exact solver (small tables only)
};

std::string to_string(Policy p);
std::optional<Policy> policy_from_string(const std::string& name);

struct PlanRequest {
  Policy policy = Policy::Ggr;
  GgrOptions ggr;    // honored when policy == Ggr
  OphrOptions ophr;  // honored when policy == Ophr
};

struct Plan {
  Ordering ordering;
  double solver_seconds = 0.0;
  double planner_phc = 0.0;  // PHC as reported by the planner (0 baselines)
  // OPHR only: the solver spent `req.ophr.max_nodes` without finishing,
  // and `ordering` is the Original fallback.
  bool budget_exhausted = false;
};

/// Plan a request schedule for `t` under `req`. For OPHR, an exhausted
/// node budget yields `budget_exhausted=true` with the Original ordering
/// as a safe fallback. The baselines read only `t`; GGR and OPHR read
/// `t`'s codes from `codes` (a run's shared view builds them at first
/// use), called inside the timer, so `solver_seconds` counts an encode the
/// call triggers, as it counts the one `ggr(const Table&, ...)` does.
Plan plan_ordering(const table::Table& t, const table::FdSet& fds,
                   const PlanRequest& req,
                   const std::function<const EncodedTable&()>& codes);

/// As above, encoding `t` for GGR and OPHR only.
Plan plan_ordering(const table::Table& t, const table::FdSet& fds,
                   const PlanRequest& req);

}  // namespace llmq::core
