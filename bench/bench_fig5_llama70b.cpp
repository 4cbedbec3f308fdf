// Fig 5 — filter queries with Llama-3-70B on 8x L4 (tensor parallel).
// Paper: Cache (GGR) achieves 1.9-3.3x over Cache (Original).

#include "bench_common.hpp"

using namespace llmq;

int main(int argc, char** argv) {
  const auto opt = bench::parse_options(argc, argv, bench::kStdoutOnly);
  bench::print_header(
      "Fig 5 — filter queries (T1), Llama-3-70B, 8x L4 TP [simulated]", opt);

  util::TablePrinter tp({"dataset", "rows", "Cache Orig (s)", "Cache GGR (s)",
                         "GGR vs Orig", "GGR PHR", "Orig PHR"});
  for (const auto& spec : data::queries_of_type(data::QueryType::Filter)) {
    const auto d = bench::load(spec.dataset, opt);
    const auto cmp = query::compare_methods(d, spec, llm::llama3_70b(),
                                            llm::l4_x8(),
                                            opt.kv_fraction(spec.dataset));
    tp.add_row({d.name, std::to_string(d.table.num_rows()),
                bench::secs(cmp.cache_original.total_seconds),
                bench::secs(cmp.cache_ggr.total_seconds),
                query::format_speedup(cmp.speedup_vs_original()),
                bench::pct(cmp.cache_ggr.overall_phr()),
                bench::pct(cmp.cache_original.overall_phr())});
  }
  tp.print();
  std::printf("\npaper reference: Movies 3.2x, Products 3.3x, BIRD 2.6x, "
              "PDMX 1.9x, Beer 2.2x over Cache (Original)\n");
  return 0;
}
