// Table 3 — real-API cost simulation: FEVER, 1000 rows, each field value
// duplicated 5x so prompts clear the providers' 1024-token caching
// minimum (§6.3). OpenAI GPT-4o-mini (automatic caching) and Anthropic
// Claude 3.5 Sonnet (conservative breakpoint on the first 1024 tokens).
// Paper: GGR saves 32% (OpenAI, 62.2% PHR) and 21% (Anthropic, 30.6% PHR);
// Original gets 0% cached (prefix below the minimum).

#include "bench_common.hpp"
#include "core/ggr.hpp"
#include "pricing/cost_report.hpp"
#include "query/prompt.hpp"

using namespace llmq;

namespace {

std::vector<pricing::PricedRequest> build_stream(const table::Table& t,
                                                 const core::Ordering& o,
                                                 const query::PromptEncoder& enc) {
  std::vector<pricing::PricedRequest> s;
  s.reserve(o.num_rows());
  for (std::size_t pos = 0; pos < o.num_rows(); ++pos) {
    pricing::PricedRequest r;
    r.prompt = enc.encode(t, o.row_at(pos), o.fields_at(pos));
    r.output_tokens = 3;
    s.push_back(std::move(r));
  }
  return s;
}

}  // namespace

int main(int argc, char** argv) {
  auto opt = bench::parse_options(argc, argv, bench::kStdoutOnly);
  bench::print_header(
      "Table 3 — OpenAI / Anthropic API cost, FEVER-1000, fields x5", opt);

  // The paper fixes this experiment at 1000 rows regardless of scale.
  data::GenOptions g;
  g.n_rows = static_cast<std::size_t>(1000 * std::min(1.0, opt.scale * 10));
  g.seed = opt.seed;
  auto d = data::generate_fever(g);

  // Duplicate each field value 5x (paper: "we duplicate each field value
  // five times, approximating a more realistic dataset").
  table::Table big(d.table.schema());
  for (std::size_t r = 0; r < d.table.num_rows(); ++r) {
    auto row = d.table.row(r);
    for (auto& cell : row) {
      std::string dup;
      for (int i = 0; i < 5; ++i) {
        dup += cell;
        dup += ' ';
      }
      cell = std::move(dup);
    }
    big.append_row(std::move(row));
  }
  d.table = std::move(big);

  core::GgrOptions go;
  go.max_row_depth = 4;
  go.max_col_depth = 2;
  const auto ggr = core::ggr(d.table, d.fds, go);
  const auto original =
      core::Ordering::identity(d.table.num_rows(), d.table.num_cols());

  const auto& spec = data::query_by_id("fever-rag");
  const query::PromptEncoder enc(
      query::PromptTemplate{spec.system_prompt, spec.stage1.user_prompt});
  const auto stream_orig = build_stream(d.table, original, enc);
  const auto stream_ggr = build_stream(d.table, ggr.ordering, enc);

  util::TablePrinter tp({"model", "method", "PHR", "cost ($)", "savings",
                         "paper PHR", "paper savings"});
  {
    const auto sheet = pricing::openai_gpt4o_mini();
    const auto o = pricing::price_stream_auto(sheet, stream_orig);
    const auto g2 = pricing::price_stream_auto(sheet, stream_ggr);
    tp.add_row({"GPT-4o-mini", "Original", bench::pct(o.prompt_hit_rate),
                util::fmt(o.cost_usd, 2), "-", "0%", "-"});
    tp.add_row({"GPT-4o-mini", "GGR", bench::pct(g2.prompt_hit_rate),
                util::fmt(g2.cost_usd, 2),
                bench::pct(1.0 - g2.cost_usd / o.cost_usd), "62.2%", "32%"});
  }
  {
    const auto sheet = pricing::anthropic_claude35_sonnet();
    const auto o = pricing::price_stream_breakpoint(sheet, stream_orig);
    const auto g2 = pricing::price_stream_breakpoint(sheet, stream_ggr);
    tp.add_row({"Claude 3.5 Sonnet", "Original", bench::pct(o.prompt_hit_rate),
                util::fmt(o.cost_usd, 2), "-", "0%", "-"});
    tp.add_row({"Claude 3.5 Sonnet", "GGR", bench::pct(g2.prompt_hit_rate),
                util::fmt(g2.cost_usd, 2),
                bench::pct(1.0 - g2.cost_usd / o.cost_usd), "30.6%", "21%"});
  }
  tp.print();
  return 0;
}
