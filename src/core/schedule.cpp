#include "core/schedule.hpp"

#include <chrono>

#include "core/baselines.hpp"

namespace llmq::core {

std::string to_string(Policy p) {
  switch (p) {
    case Policy::Original: return "original";
    case Policy::SortedFixed: return "sorted-fixed";
    case Policy::StatsFixed: return "stats-fixed";
    case Policy::Ggr: return "ggr";
    case Policy::Ophr: return "ophr";
  }
  return "?";
}

std::optional<Policy> policy_from_string(const std::string& name) {
  if (name == "original") return Policy::Original;
  if (name == "sorted-fixed") return Policy::SortedFixed;
  if (name == "stats-fixed") return Policy::StatsFixed;
  if (name == "ggr") return Policy::Ggr;
  if (name == "ophr") return Policy::Ophr;
  return std::nullopt;
}

Plan plan_ordering(const table::Table& t, const table::FdSet& fds,
                   const PlanRequest& req,
                   const std::function<const EncodedTable&()>& codes) {
  using Clock = std::chrono::steady_clock;
  Plan out;
  const auto start = Clock::now();
  switch (req.policy) {
    case Policy::Original:
      out.ordering = original_ordering(t);
      break;
    case Policy::SortedFixed:
      out.ordering = sorted_original_fields(t);
      break;
    case Policy::StatsFixed:
      out.ordering = stats_fixed_ordering(t);
      break;
    case Policy::Ggr: {
      const EncodedTable& v = codes();
      GgrResult r = ggr(v, all_rows(v.num_rows()), fds, req.ggr);
      out.ordering = std::move(r.ordering);
      out.planner_phc = r.phc;
      break;
    }
    case Policy::Ophr:
      if (auto r = ophr(codes(), req.ophr)) {
        out.ordering = std::move(r->ordering);
        out.planner_phc = r->phc;
      } else {
        out.ordering = original_ordering(t);
        out.budget_exhausted = true;
      }
      break;
  }
  out.solver_seconds =
      std::chrono::duration<double>(Clock::now() - start).count();
  return out;
}

Plan plan_ordering(const table::Table& t, const table::FdSet& fds,
                   const PlanRequest& req) {
  std::optional<EncodedTable> v;
  return plan_ordering(t, fds, req,
                       [&]() -> const EncodedTable& { return v.emplace(t); });
}

}  // namespace llmq::core
