// Table 5 — GGR solver wall-clock time per dataset with the paper's
// configuration (row depth 4, column depth 2). Paper: 1.2-12.6 s on the
// full datasets (up to ~30K rows / 57 fields), i.e. <0.01% of query time.
//
// By default this bench runs the *full* paper-sized tables for the five
// relational datasets (solver time is the point here); pass --scale to
// shrink. RAG datasets honor --scale because their generation includes a
// KNN retrieval pass.

#include <chrono>

#include "bench_common.hpp"
#include "core/ggr.hpp"

using namespace llmq;

int main(int argc, char** argv) {
  auto opt = bench::parse_options(argc, argv, bench::kStdoutOnly);
  bench::print_header("Table 5 — GGR solver time (s)", opt);

  struct Row {
    const char* key;
    bool full_size;
    double paper_seconds;
  };
  const Row rows[] = {{"movies", true, 3.3},  {"products", true, 4.5},
                      {"bird", true, 1.2},    {"pdmx", true, 12.6},
                      {"beer", true, 8.0},    {"fever", false, 5.6},
                      {"squad", false, 4.5}};

  util::TablePrinter tp({"dataset", "rows", "fields", "solver (s)",
                         "paper (s)", "nodes", "fallbacks"});
  for (const auto& r : rows) {
    data::GenOptions g;
    g.seed = opt.seed;
    g.n_rows = r.full_size ? data::paper_rows(r.key) : opt.rows_for(r.key);
    const auto d = data::generate_dataset(r.key, g);

    core::GgrOptions go;
    go.max_row_depth = 4;
    go.max_col_depth = 2;
    const auto res = core::ggr(d.table, d.fds, go);
    tp.add_row({d.name, std::to_string(d.table.num_rows()),
                std::to_string(d.table.num_cols()),
                util::fmt(res.solve_seconds, 2), util::fmt(r.paper_seconds, 1),
                std::to_string(res.counters.recursion_nodes),
                std::to_string(res.counters.fallbacks)});
  }
  tp.print();
  std::printf("\n(memory: GGR keeps only the input table plus O(n) index "
              "vectors; recursion splits never copy cell data)\n");
  return 0;
}
