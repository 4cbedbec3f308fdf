// Ablations of the GGR design choices DESIGN.md calls out:
//  (a) functional dependencies on/off — solver time and PHC quality;
//  (b) recursion depth limits — quality vs solver time;
//  (c) HITCOUNT early-stop threshold sweep;
//  (d) policy ladder: original vs sorted vs stats-fixed vs GGR vs GGR+FD —
//      how much each ingredient of the paper's design buys.

#include "bench_common.hpp"
#include "core/baselines.hpp"
#include "core/ggr.hpp"
#include "core/phc.hpp"
#include "core/refine.hpp"
#include "core/windowed.hpp"

using namespace llmq;

namespace {

double hit_fraction(const table::Table& t, const core::Ordering& o) {
  return core::phc_breakdown(t, o).hit_fraction();
}

}  // namespace

int main(int argc, char** argv) {
  const auto opt = bench::parse_options(argc, argv, bench::kStdoutOnly);
  bench::print_header("Ablations — GGR design choices", opt);

  // (d) policy ladder across datasets.
  {
    util::print_banner("policy ladder (squared-length hit fraction)");
    util::TablePrinter tp({"dataset", "original", "sorted rows",
                           "stats-fixed", "GGR no-FD", "GGR + FD"});
    for (const auto& key : data::dataset_keys()) {
      const auto d = bench::load(key, opt, 2000);
      core::GgrOptions go;
      go.max_row_depth = 4;
      go.max_col_depth = 2;
      auto go_nofd = go;
      go_nofd.use_fds = false;
      tp.add_row(
          {d.name,
           bench::pct(hit_fraction(d.table, core::original_ordering(d.table))),
           bench::pct(
               hit_fraction(d.table, core::sorted_original_fields(d.table))),
           bench::pct(
               hit_fraction(d.table, core::stats_fixed_ordering(d.table))),
           bench::pct(hit_fraction(d.table, core::ggr(d.table, go_nofd).ordering)),
           bench::pct(
               hit_fraction(d.table, core::ggr(d.table, d.fds, go).ordering))});
    }
    tp.print();
  }

  // (a)+(b) depth sweep with and without FDs on the FD-rich datasets.
  {
    util::print_banner("depth sweep (movies): PHC fraction / solver ms");
    util::TablePrinter tp({"row depth", "col depth", "no-FD frac", "no-FD ms",
                           "FD frac", "FD ms", "fallbacks (FD)"});
    const auto d = bench::load("movies", opt, 3000);
    for (int rd : {0, 1, 2, 4, 8, 16}) {
      for (int cd : {1, 2, 4}) {
        core::GgrOptions go;
        go.max_row_depth = rd;
        go.max_col_depth = cd;
        auto go_nofd = go;
        go_nofd.use_fds = false;
        const auto no_fd = core::ggr(d.table, go_nofd);
        const auto with_fd = core::ggr(d.table, d.fds, go);
        tp.add_row({std::to_string(rd), std::to_string(cd),
                    bench::pct(hit_fraction(d.table, no_fd.ordering)),
                    util::fmt(no_fd.solve_seconds * 1e3, 1),
                    bench::pct(hit_fraction(d.table, with_fd.ordering)),
                    util::fmt(with_fd.solve_seconds * 1e3, 1),
                    std::to_string(with_fd.counters.fallbacks)});
      }
    }
    tp.print();
  }

  // (c) threshold sweep.
  {
    util::print_banner("HITCOUNT threshold sweep (products)");
    util::TablePrinter tp(
        {"threshold", "hit frac", "solver ms", "recursion nodes"});
    const auto d = bench::load("products", opt, 3000);
    for (double thr : {0.0, 1e3, 1e4, 1e5, 1e6, 1e9}) {
      core::GgrOptions go;
      go.max_row_depth = -1;
      go.max_col_depth = -1;
      go.hitcount_threshold = thr;
      const auto res = core::ggr(d.table, d.fds, go);
      tp.add_row({thr == 0.0 ? "off" : util::fmt(thr, 0),
                  bench::pct(hit_fraction(d.table, res.ordering)),
                  util::fmt(res.solve_seconds * 1e3, 1),
                  std::to_string(res.counters.recursion_nodes)});
    }
    tp.print();
  }

  // Extension: does cheap local search close the GGR gap?
  {
    util::print_banner("local-search refinement (hit fraction / extra ms)");
    util::TablePrinter tp({"dataset", "GGR", "GGR+refine", "moves",
                           "refine ms"});
    for (const char* key : {"movies", "pdmx", "beer"}) {
      const auto d = bench::load(key, opt, 2000);
      core::GgrOptions go;
      go.max_row_depth = 4;
      go.max_col_depth = 2;
      const auto base = core::ggr(d.table, d.fds, go);
      const auto refined = core::refine_ordering(d.table, base.ordering, {});
      tp.add_row({d.name, bench::pct(hit_fraction(d.table, base.ordering)),
                  bench::pct(hit_fraction(d.table, refined.ordering)),
                  std::to_string(refined.moves_applied),
                  util::fmt(refined.seconds * 1e3, 1)});
    }
    tp.print();
  }

  // Streaming extension: how much buffering do the gains need?
  {
    util::print_banner(
        "windowed GGR (movies): hit fraction vs reorder buffer size");
    util::TablePrinter tp({"window rows", "hit frac", "windows", "solver ms"});
    const auto d = bench::load("movies", opt, 3000);
    for (std::size_t window : {16u, 64u, 256u, 1024u, 0u}) {
      core::WindowedOptions wo;
      wo.window_rows = window;
      wo.ggr.max_row_depth = 4;
      wo.ggr.max_col_depth = 2;
      const auto res = core::windowed_ggr(d.table, d.fds, wo);
      tp.add_row({window == 0 ? "full table" : std::to_string(window),
                  bench::pct(hit_fraction(d.table, res.ordering)),
                  std::to_string(res.windows),
                  util::fmt(res.solve_seconds * 1e3, 1)});
    }
    tp.print();
  }

  // Literal-paper HITCOUNT (unsquared inferred lengths) vs PHC-unit score.
  {
    util::print_banner("HITCOUNT inferred-length squaring (beer)");
    const auto d = bench::load("beer", opt, 3000);
    core::GgrOptions go;
    go.max_row_depth = 4;
    go.max_col_depth = 2;
    auto literal = go;
    literal.square_inferred_lengths = false;
    const auto squared = core::ggr(d.table, d.fds, go);
    const auto lit = core::ggr(d.table, d.fds, literal);
    std::printf("squared (ours): %s   literal (Algorithm 1 line 6): %s\n",
                bench::pct(hit_fraction(d.table, squared.ordering)).c_str(),
                bench::pct(hit_fraction(d.table, lit.ordering)).c_str());
  }
  return 0;
}
