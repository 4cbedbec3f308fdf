// Fig 4 — multi-LLM invocation (T3) and aggregation (T4) on Movies and
// Products. Paper: GGR 2.7-3.7x over No Cache, 1.7-2.8x over Original;
// the multi-LLM gain is diluted by stage 1 (distinct review text).

#include "bench_common.hpp"

using namespace llmq;

int main(int argc, char** argv) {
  const auto opt = bench::parse_options(argc, argv, bench::kStdoutOnly);
  bench::print_header(
      "Fig 4 — multi-LLM (T3) + aggregation (T4), Llama-3-8B [simulated]",
      opt);

  util::TablePrinter tp({"query", "rows", "sel. rows", "No Cache (s)",
                         "Cache Orig (s)", "Cache GGR (s)", "GGR vs NoCache",
                         "GGR vs Orig"});
  std::vector<data::QuerySpec> specs;
  for (const auto& q : data::queries_of_type(data::QueryType::MultiLlm))
    specs.push_back(q);
  for (const auto& q : data::queries_of_type(data::QueryType::Aggregation))
    specs.push_back(q);
  for (const auto& spec : specs) {
    const auto d = bench::load(spec.dataset, opt);
    const auto cmp = query::compare_methods(d, spec, llm::llama3_8b(),
                                            llm::l4(),
                                            opt.kv_fraction(spec.dataset));
    tp.add_row({spec.id, std::to_string(d.table.num_rows()),
                std::to_string(cmp.cache_ggr.rows_selected),
                bench::secs(cmp.no_cache.total_seconds),
                bench::secs(cmp.cache_original.total_seconds),
                bench::secs(cmp.cache_ggr.total_seconds),
                query::format_speedup(cmp.speedup_vs_no_cache()),
                query::format_speedup(cmp.speedup_vs_original())});
  }
  tp.print();
  std::printf("\npaper reference: Movies T3 2.7x/1.7x, Products T3 2.8x/2.2x, "
              "Movies T4 3.5x/2.5x, Products T4 3.7x/2.8x\n");

  // Aggregation semantics check: report the AVG the queries compute.
  util::print_banner("aggregation results (AVG of LLM sentiment scores)");
  for (const auto& spec : data::queries_of_type(data::QueryType::Aggregation)) {
    const auto d = bench::load(spec.dataset, opt);
    auto cfg = query::ExecConfig::standard(query::Method::CacheGgr);
    cfg.scale_kv_pool(opt.kv_fraction(spec.dataset));
    const auto r = query::run_query(d, spec, cfg);
    std::printf("%s: AVG = %.2f over %zu rows\n", spec.id.c_str(), r.aggregate,
                r.rows_selected);
  }
  return 0;
}
