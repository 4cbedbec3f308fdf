// Table 2 — prefix hit rate (PHR %) of the LLM filter and RAG queries for
// the Original and GGR orderings.
// Paper: Original {35,27,10,12,50,11,11}%, GGR {86,83,85,57,80,67,70}%.

#include "bench_common.hpp"

using namespace llmq;

int main(int argc, char** argv) {
  const auto opt = bench::parse_options(argc, argv, bench::kJson);
  bench::print_header("Table 2 — PHR (%), filter + RAG queries [simulated]",
                      opt);

  struct Row {
    const char* dataset;
    const char* query;
    double paper_orig;
    double paper_ggr;
  };
  const Row rows[] = {{"movies", "movies-filter", 35, 86},
                      {"products", "products-filter", 27, 83},
                      {"bird", "bird-filter", 10, 85},
                      {"pdmx", "pdmx-filter", 12, 57},
                      {"beer", "beer-filter", 50, 80},
                      {"fever", "fever-rag", 11, 67},
                      {"squad", "squad-rag", 11, 70}};

  bench::JsonReport json("bench_table2_phr", opt);
  util::TablePrinter tp({"dataset", "rows", "Original PHR", "GGR PHR",
                         "delta", "paper Orig", "paper GGR"});
  for (const auto& r : rows) {
    const auto d = bench::load(r.dataset, opt);
    const auto& spec = data::query_by_id(r.query);
    auto cfg_orig = query::ExecConfig::standard(query::Method::CacheOriginal);
    auto cfg_ggr = query::ExecConfig::standard(query::Method::CacheGgr);
    cfg_orig.scale_kv_pool(opt.kv_fraction(r.dataset));
    cfg_ggr.scale_kv_pool(opt.kv_fraction(r.dataset));
    const auto orig = query::run_query(d, spec, cfg_orig);
    const auto ggr = query::run_query(d, spec, cfg_ggr);
    tp.add_row({d.name, std::to_string(d.table.num_rows()),
                bench::pct(orig.overall_phr()), bench::pct(ggr.overall_phr()),
                "+" + util::fmt(100 * (ggr.overall_phr() - orig.overall_phr()),
                                1),
                util::fmt(r.paper_orig, 0) + "%",
                util::fmt(r.paper_ggr, 0) + "%"});
    json.add("phr", {{"dataset", r.dataset},
                     {"rows", d.table.num_rows()},
                     {"original_phr", orig.overall_phr()},
                     {"ggr_phr", ggr.overall_phr()},
                     {"paper_original_phr", r.paper_orig / 100.0},
                     {"paper_ggr_phr", r.paper_ggr / 100.0}});
  }
  tp.print();
  json.write();
  return 0;
}
