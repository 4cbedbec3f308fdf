// Table 7 (Appendix D.2) — filter queries with Llama-3.2-1B on one L4.
// Paper: PHR matches the 8B runs (the reordering is model-independent),
// but the runtime ratio shrinks (1.2-1.5x vs 1.8-3.0x for 8B) because the
// small model leaves ample GPU memory — large decode batches are possible
// without cache sharing, so caching's memory relief matters less.

#include "bench_common.hpp"

using namespace llmq;

int main(int argc, char** argv) {
  const auto opt = bench::parse_options(argc, argv, bench::kStdoutOnly);
  bench::print_header(
      "Table 7 — filter queries (T1), Llama-3.2-1B, 1x L4 [simulated]", opt);

  struct Paper {
    const char* dataset;
    double ratio;
    double orig_phr;
    double ggr_phr;
  };
  const Paper paper[] = {{"bird", 1.5, 10.41, 83.99},
                         {"movies", 1.3, 29.32, 82.10},
                         {"pdmx", 1.3, 11.97, 56.00},
                         {"products", 1.4, 24.06, 82.10},
                         {"beer", 1.2, 47.98, 73.93}};

  util::TablePrinter tp({"dataset", "runtime orig/GGR (1B)",
                         "runtime orig/GGR (8B)", "Orig PHR", "GGR PHR",
                         "paper ratio", "paper GGR PHR"});
  for (const auto& p : paper) {
    const auto d = bench::load(p.dataset, opt);
    const auto& spec = data::query_by_id(std::string(p.dataset) + "-filter");
    const double kvf = opt.kv_fraction(p.dataset);
    const auto tiny =
        query::compare_methods(d, spec, llm::llama3_1b(), llm::l4(), kvf);
    const auto big =
        query::compare_methods(d, spec, llm::llama3_8b(), llm::l4(), kvf);
    tp.add_row({d.name, query::format_speedup(tiny.speedup_vs_original()),
                query::format_speedup(big.speedup_vs_original()),
                bench::pct(tiny.cache_original.overall_phr()),
                bench::pct(tiny.cache_ggr.overall_phr()),
                query::format_speedup(p.ratio),
                util::fmt(p.ggr_phr, 1) + "%"});
  }
  tp.print();
  std::printf("\nshape check: 1B ratios should sit below the 8B ratios while "
              "PHRs stay comparable across model sizes\n");
  return 0;
}
