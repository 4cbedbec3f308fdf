// plan_csv: the "apply it to your own data" tool.
//
// Reads a CSV table, mines functional dependencies from the data, plans a
// GGR request ordering, reports predicted prefix sharing for every policy,
// and optionally writes the reordered table (rows permuted; a
// `llmq_field_order` column records each row's field order) so the
// schedule can be fed to any serving stack.
//
// Usage:
//   ./build/example_plan_csv <in.csv> [--out reordered.csv]
//                            [--policy ggr|original|stats-fixed|sorted-fixed]
//                            [--window N] [--fd-tolerance f]

#include <cstdio>
#include <cstring>

#include "core/schedule.hpp"
#include "core/windowed.hpp"
#include "table/csv.hpp"
#include "table/stats.hpp"
#include "util/strings.hpp"
#include "util/table_printer.hpp"
#include "cli.hpp"

using namespace llmq;

namespace {

core::Ordering plan_with(const table::Table& t, const table::FdSet& fds,
                         core::Policy policy, std::size_t window) {
  if (policy == core::Policy::Ggr && window > 0) {
    core::WindowedOptions wo;
    wo.window_rows = window;
    return core::windowed_ggr(t, fds, wo).ordering;
  }
  core::PlanRequest req;
  req.policy = policy;
  return core::plan_ordering(t, fds, req).ordering;
}

}  // namespace

int main(int argc, char** argv) {
  const examples::Cli cli(
      argc, argv,
      "<in.csv> [--out f.csv] [--policy ggr|original|stats-fixed|sorted-fixed]"
      " [--window N] [--fd-tolerance f]");
  if (argc < 2 || argv[1][0] == '-')
    cli.usage_error("expected an input CSV, got", argc < 2 ? "" : argv[1]);
  std::string out_path;
  std::string policy_name = "ggr";
  std::size_t window = 0;
  double fd_tolerance = 0.0;
  for (int i = 2; i < argc; ++i) {
    const char* flag = argv[i];
    if (!std::strcmp(flag, "--out"))
      out_path = cli.value(i);
    else if (!std::strcmp(flag, "--policy"))
      policy_name = cli.value(i);
    else if (!std::strcmp(flag, "--window"))
      window = cli.count(flag, cli.value(i));
    else if (!std::strcmp(flag, "--fd-tolerance"))
      fd_tolerance = cli.fraction(flag, cli.value(i));
    else
      cli.usage_error("unknown flag", flag);
  }
  const auto policy = core::policy_from_string(policy_name);
  if (!policy) cli.usage_error("unknown policy", policy_name.c_str());

  const table::Table t = cli.read_table(argv[1]);
  std::printf("table: %zu rows x %zu fields\n", t.num_rows(), t.num_cols());

  // Column statistics (what the planner sees).
  {
    const auto stats = table::compute_stats(t);
    util::TablePrinter tp({"field", "cardinality", "avg tokens",
                           "max group", "expected hit score"});
    for (const auto& c : stats.columns)
      tp.add_row({c.name, std::to_string(c.cardinality),
                  util::fmt(c.avg_len_tokens, 1),
                  std::to_string(c.max_group_size),
                  util::fmt(c.expected_hit_score(stats.n_rows), 0)});
    tp.print();
  }

  // FD mining.
  const auto fds = table::mine_fds(t, fd_tolerance);
  std::printf("\nmined %zu functional dependencies (tolerance %.2g)\n",
              fds.num_edges(), fd_tolerance);
  for (const auto& e : fds.edges())
    std::printf("  %s -> %s\n", e.determinant.c_str(), e.dependent.c_str());

  // Predicted sharing per policy.
  {
    util::print_banner("predicted adjacent-request sharing by policy");
    util::TablePrinter tp({"policy", "PHC", "hit fraction"});
    for (core::Policy p :
         {core::Policy::Original, core::Policy::SortedFixed,
          core::Policy::StatsFixed, core::Policy::Ggr}) {
      const auto o = plan_with(t, fds, p, p == core::Policy::Ggr ? window : 0);
      const auto b = core::phc_breakdown(t, o);
      tp.add_row({core::to_string(p), util::fmt(b.total, 0),
                  util::fmt(100.0 * b.hit_fraction(), 1) + "%"});
    }
    tp.print();
  }

  if (!out_path.empty()) {
    const auto ordering = plan_with(t, fds, *policy, window);
    std::vector<std::string> names;
    for (std::size_t c = 0; c < t.num_cols(); ++c)
      names.push_back(t.schema().field(c).name);
    names.push_back("llmq_field_order");
    table::Table out{table::Schema::of_names(names)};
    for (std::size_t pos = 0; pos < ordering.num_rows(); ++pos) {
      auto row = t.row(ordering.row_at(pos));
      std::vector<std::string> order_names;
      for (std::size_t f : ordering.fields_at(pos))
        order_names.push_back(t.schema().field(f).name);
      row.push_back(util::join(order_names, ";"));
      out.append_row(std::move(row));
    }
    cli.write_table(out, out_path);
    std::printf("\nwrote %s (%zu rows, policy %s%s)\n", out_path.c_str(),
                out.num_rows(), policy_name.c_str(),
                window ? (", window " + std::to_string(window)).c_str() : "");
  }
  return 0;
}
