// Fig 3a — end-to-end runtime of the five LLM *filter* queries (T1) under
// {No Cache, Cache (Original), Cache (GGR)}, Llama-3-8B on one L4.
// Paper: GGR achieves 2.1-3.8x over No Cache and 1.8-3.0x over Original.

#include "bench_common.hpp"

using namespace llmq;

int main(int argc, char** argv) {
  const auto opt = bench::parse_options(argc, argv, bench::kStdoutOnly);
  bench::print_header(
      "Fig 3a — filter queries (T1), Llama-3-8B, 1x L4 [simulated]", opt);

  util::TablePrinter tp({"dataset", "rows", "No Cache (s)", "Cache Orig (s)",
                         "Cache GGR (s)", "GGR vs NoCache", "GGR vs Orig",
                         "GGR PHR"});
  for (const auto& spec : data::queries_of_type(data::QueryType::Filter)) {
    const auto d = bench::load(spec.dataset, opt);
    const auto cmp = query::compare_methods(d, spec, llm::llama3_8b(),
                                            llm::l4(),
                                            opt.kv_fraction(spec.dataset));
    tp.add_row({d.name, std::to_string(d.table.num_rows()),
                bench::secs(cmp.no_cache.total_seconds),
                bench::secs(cmp.cache_original.total_seconds),
                bench::secs(cmp.cache_ggr.total_seconds),
                query::format_speedup(cmp.speedup_vs_no_cache()),
                query::format_speedup(cmp.speedup_vs_original()),
                bench::pct(cmp.cache_ggr.overall_phr())});
  }
  tp.print();
  std::printf("\npaper reference: GGR vs NoCache 2.1-3.8x; GGR vs Original "
              "1.8-3.0x (Movies 3.8/3.0, Products 2.5/2.7, BIRD 3.8/2.6, "
              "PDMX 2.1/1.8, Beer 3.8/2.0)\n");
  return 0;
}
