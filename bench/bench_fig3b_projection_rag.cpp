// Fig 3b — end-to-end runtime of the five *projection* queries (T2) and
// the two *RAG* queries (T5). Paper: projection gains shrink relative to
// filters because long decode dilutes prefill savings; RAG gains 1.7-1.8x
// over Cache (Original).

#include "bench_common.hpp"

using namespace llmq;

namespace {

void run_set(const std::vector<data::QuerySpec>& specs,
             const bench::BenchOptions& opt, util::TablePrinter& tp) {
  for (const auto& spec : specs) {
    const auto d = bench::load(spec.dataset, opt);
    const auto cmp = query::compare_methods(d, spec, llm::llama3_8b(),
                                            llm::l4(),
                                            opt.kv_fraction(spec.dataset));
    tp.add_row({d.name, data::to_string(spec.type),
                std::to_string(d.table.num_rows()),
                bench::secs(cmp.no_cache.total_seconds),
                bench::secs(cmp.cache_original.total_seconds),
                bench::secs(cmp.cache_ggr.total_seconds),
                query::format_speedup(cmp.speedup_vs_no_cache()),
                query::format_speedup(cmp.speedup_vs_original())});
  }
}

}  // namespace

int main(int argc, char** argv) {
  const auto opt = bench::parse_options(argc, argv, bench::kStdoutOnly);
  bench::print_header(
      "Fig 3b — projection (T2) + RAG (T5), Llama-3-8B, 1x L4 [simulated]",
      opt);

  util::TablePrinter tp({"dataset", "type", "rows", "No Cache (s)",
                         "Cache Orig (s)", "Cache GGR (s)", "GGR vs NoCache",
                         "GGR vs Orig"});
  run_set(data::queries_of_type(data::QueryType::Projection), opt, tp);
  run_set(data::queries_of_type(data::QueryType::Rag), opt, tp);
  tp.print();
  std::printf("\npaper reference: projection 2.4-3.7x vs NoCache / 1.5-3.4x "
              "vs Original; RAG 1.9x vs NoCache, 1.7-1.8x vs Original\n");
  return 0;
}
