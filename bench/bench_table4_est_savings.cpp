// Table 4 — estimated cost savings across all datasets, assuming future
// automatic prefix caching at arbitrary lengths: apply the measured PHRs
// (Table 2 pipeline) to the OpenAI and Anthropic pricing models.
// Paper: 20-39% savings under OpenAI, 48-79% under Anthropic.

#include "bench_common.hpp"
#include "pricing/price_sheet.hpp"

using namespace llmq;

int main(int argc, char** argv) {
  const auto opt = bench::parse_options(argc, argv, bench::kStdoutOnly);
  bench::print_header("Table 4 — estimated cost savings from PHR [simulated]",
                      opt);

  struct Row {
    const char* dataset;
    const char* query;
    double paper_openai;
    double paper_anthropic;
  };
  const Row rows[] = {{"movies", "movies-filter", 31, 73},
                      {"products", "products-filter", 33, 73},
                      {"bird", "bird-filter", 39, 79},
                      {"pdmx", "pdmx-filter", 24, 48},
                      {"beer", "beer-filter", 20, 55},
                      {"fever", "fever-rag", 30, 60},
                      {"squad", "squad-rag", 31, 63}};

  const auto openai = pricing::openai_gpt4o_mini();
  const auto anthropic = pricing::anthropic_claude35_sonnet();

  util::TablePrinter tp({"dataset", "Orig PHR", "GGR PHR", "OpenAI save",
                         "Anthropic save", "paper OA", "paper An"});
  for (const auto& r : rows) {
    const auto d = bench::load(r.dataset, opt);
    const auto& spec = data::query_by_id(r.query);
    auto cfg_orig = query::ExecConfig::standard(query::Method::CacheOriginal);
    auto cfg_ggr = query::ExecConfig::standard(query::Method::CacheGgr);
    cfg_orig.scale_kv_pool(opt.kv_fraction(r.dataset));
    cfg_ggr.scale_kv_pool(opt.kv_fraction(r.dataset));
    const double phr_orig =
        query::run_query(d, spec, cfg_orig).overall_phr();
    const double phr_ggr = query::run_query(d, spec, cfg_ggr).overall_phr();
    tp.add_row({d.name, bench::pct(phr_orig), bench::pct(phr_ggr),
                bench::pct(pricing::estimated_savings(openai, phr_orig, phr_ggr)),
                bench::pct(
                    pricing::estimated_savings(anthropic, phr_orig, phr_ggr)),
                util::fmt(r.paper_openai, 0) + "%",
                util::fmt(r.paper_anthropic, 0) + "%"});
  }
  tp.print();
  return 0;
}
