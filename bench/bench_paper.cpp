// The paper's evaluation from one binary: Figs. 1 and 3-6, Tables 2-7 and
// the GGR design ablation, each a section of kSections below.
//
// Each dataset is generated once, and each distinct run (query, model, GPU,
// task profile, method) executes once: Table 2, Table 4, Figs. 3a and 6 and
// Table 7 read the same Llama-3-8B Original and GGR runs of the filter
// queries. The sections print the paper's tables from those shared results
// and write the same values to --json; BENCH_paper.json pins them.
//
// OPHR (Fig. 1, Table 6) gives up after kOphrMaxNodes sub-problems, so a
// cell reads the same on every host.

#include <map>
#include <optional>
#include <tuple>

#include "bench_common.hpp"
#include "core/baselines.hpp"
#include "core/ggr.hpp"
#include "core/ophr.hpp"
#include "core/phc.hpp"
#include "core/refine.hpp"
#include "core/windowed.hpp"
#include "pricing/cost_report.hpp"
#include "pricing/price_sheet.hpp"
#include "query/prompt.hpp"
#include "util/stats.hpp"

using namespace llmq;

namespace {

using query::Method;
using query::QueryRunResult;

/// OPHR's node budget. The paper caps OPHR at 2 h of wall clock (App.
/// D.1); a count of sub-problems gives up on the same instances on every
/// host. Table 6's 10-row samples need 17,981-164,675 nodes at seeds 42,
/// 7, 1 and 3, where no 25-row sample finishes in 10 s of search either.
/// Of Fig. 1's instances only Fig. 1b x=6, m=3 needs more than this and
/// finishes unbudgeted (10,980,010 nodes, ~6 s).
constexpr std::size_t kOphrMaxNodes = 250'000;

/// Who serves a run: the engine's model and GPU, and the task-model
/// profile that decides its answers.
struct Setup {
  llm::ModelSpec model;
  llm::GpuSpec gpu;
  llm::ModelProfile profile;
};

Setup llama8b_l4(llm::ModelProfile profile = llm::profile_llama3_8b()) {
  return {llm::llama3_8b(), llm::l4(), std::move(profile)};
}

/// What every section shares: the options, the report, and the datasets
/// and query runs made so far.
class Paper {
 public:
  explicit Paper(const bench::BenchOptions& options)
      : opt(options), json("bench_paper", options) {}

  /// `key`'s dataset at `rows` rows (seed --seed), generated on first use.
  const data::Dataset& dataset(const std::string& key, std::size_t rows) {
    auto it = datasets_.find({key, rows});
    if (it == datasets_.end()) {
      data::GenOptions g;
      g.n_rows = rows;
      g.seed = opt.seed;
      it = datasets_.emplace(std::pair{key, rows},
                             data::generate_dataset(key, g))
               .first;
    }
    return it->second;
  }

  /// The scaled dataset (BenchOptions::rows_for), at most `row_cap` rows.
  const data::Dataset& scaled(
      const std::string& key,
      std::size_t row_cap = std::numeric_limits<std::size_t>::max()) {
    return dataset(key, std::min(opt.rows_for(key), row_cap));
  }

  /// `spec` over its scaled dataset under `method` on `setup`, with the KV
  /// pool scaled with the data, executed on first use.
  const QueryRunResult& run(const data::QuerySpec& spec, Method method,
                            const Setup& setup) {
    const RunKey key{spec.id, setup.model.name, setup.gpu.name,
                     setup.profile.name, method};
    auto it = runs_.find(key);
    if (it == runs_.end()) {
      auto cfg = query::ExecConfig::standard(method, setup.model, setup.gpu);
      cfg.model_profile = setup.profile;
      cfg.scale_kv_pool(opt.kv_fraction(spec.dataset));
      it = runs_.emplace(key, query::run_query(scaled(spec.dataset), spec, cfg))
               .first;
    }
    return it->second;
  }

  const bench::BenchOptions& opt;
  bench::JsonReport json;

 private:
  using RunKey =
      std::tuple<std::string, std::string, std::string, std::string, Method>;
  std::map<std::pair<std::string, std::size_t>, data::Dataset> datasets_;
  std::map<RunKey, QueryRunResult> runs_;
};

/// The slower arm's job time over GGR's (0 when GGR took no time).
double speedup(const QueryRunResult& base, const QueryRunResult& ggr) {
  return ggr.total_seconds > 0.0 ? base.total_seconds / ggr.total_seconds
                                 : 0.0;
}

double hit_fraction(const table::Table& t, const core::Ordering& o) {
  return core::phc_breakdown(t, o).hit_fraction();
}

/// GGR with the paper's §6.5 configuration: row depth 4, column depth 2.
core::GgrOptions paper_ggr() {
  core::GgrOptions go;
  go.max_row_depth = 4;
  go.max_col_depth = 2;
  return go;
}

// Fig 1a: first field unique, remaining m-1 fields constant.
//   Fixed (default) ordering PHC = 0; optimal = (n-1)(m-1).
table::Table fig1a_table(std::size_t n, std::size_t m) {
  std::vector<std::string> names;
  for (std::size_t c = 0; c < m; ++c) names.push_back("f" + std::to_string(c));
  table::Table t(table::Schema::of_names(names));
  for (std::size_t r = 0; r < n; ++r) {
    std::vector<std::string> row{"unique" + std::to_string(r)};
    for (std::size_t c = 1; c < m; ++c) row.push_back("v");
    t.append_row(std::move(row));
  }
  return t;
}

// Fig 1b: m non-overlapping groups of x rows, one per field.
//   Any fixed ordering PHC = x-1; per-row reordering = m(x-1).
table::Table fig1b_table(std::size_t x, std::size_t m) {
  std::vector<std::string> names;
  for (std::size_t c = 0; c < m; ++c) names.push_back("f" + std::to_string(c));
  table::Table t(table::Schema::of_names(names));
  std::size_t uid = 0;
  for (std::size_t g = 0; g < m; ++g) {
    for (std::size_t i = 0; i < x; ++i) {
      std::vector<std::string> row;
      for (std::size_t c = 0; c < m; ++c)
        row.push_back(c == g ? "G" + std::to_string(g)
                             : "u" + std::to_string(uid++));
      t.append_row(std::move(row));
    }
  }
  return t;
}

double best_fixed_ordering_phc(const table::Table& t) {
  // Exhaustive over single fixed field priorities (sort rows, same field
  // order in every row) — the best any fixed-field scheme can do here.
  double best = 0.0;
  for (std::size_t lead = 0; lead < t.num_cols(); ++lead) {
    std::vector<std::size_t> order{lead};
    for (std::size_t c = 0; c < t.num_cols(); ++c)
      if (c != lead) order.push_back(c);
    const auto o = core::Ordering::fixed_fields(t.sorted_row_order(order), order);
    best = std::max(best, core::phc(t, o, core::LengthMeasure::Unit));
  }
  return best;
}

void fig1(Paper& p) {
  constexpr auto kUnit = core::LengthMeasure::Unit;
  util::TablePrinter tp({"scenario", "n", "m", "default PHC", "best fixed PHC",
                         "per-row PHC (GGR)", "optimal PHC", "paper optimal"});
  const auto add = [&](const char* scenario, const table::Table& t,
                       std::size_t paper_optimal) {
    core::GgrOptions go;
    go.measure = kUnit;
    go.max_row_depth = -1;
    go.max_col_depth = -1;
    const auto g = core::ggr(t, go);
    const auto o =
        core::ophr(t, {.measure = kUnit, .max_nodes = kOphrMaxNodes});
    const double original = core::phc(t, core::original_ordering(t), kUnit);
    const double fixed = best_fixed_ordering_phc(t);
    const double optimal = o ? core::phc(t, o->ordering, kUnit) : 0.0;
    tp.add_row({scenario, std::to_string(t.num_rows()),
                std::to_string(t.num_cols()), util::fmt(original, 0),
                util::fmt(fixed, 0), util::fmt(g.phc, 0),
                o ? util::fmt(optimal, 0) : "gave up",
                std::to_string(paper_optimal)});
    p.json.add("fig1", {{"scenario", scenario},
                        {"n", t.num_rows()},
                        {"m", t.num_cols()},
                        {"default_phc", original},
                        {"best_fixed_phc", fixed},
                        {"ggr_phc", g.phc},
                        {"ggr_nodes", g.counters.recursion_nodes},
                        {"ophr_solved", o ? 1 : 0},
                        {"ophr_phc", optimal},
                        {"ophr_nodes", o ? o->nodes_explored : kOphrMaxNodes},
                        {"paper_optimal_phc", paper_optimal}});
  };
  for (auto [n, m] : {std::pair<std::size_t, std::size_t>{8, 4}, {16, 5},
                      {32, 8}})
    add("Fig1a", fig1a_table(n, m), (n - 1) * (m - 1));
  for (auto [x, m] : {std::pair<std::size_t, std::size_t>{4, 3}, {6, 3},
                      {5, 4}})
    add("Fig1b", fig1b_table(x, m), m * (x - 1));
  tp.print();

  // §3.2 pricing example: 9-field table, fixed ordering 10% hit rate,
  // per-row ordering approaching m-fold improvement -> ~42% savings under
  // OpenAI's half-price cached tokens.
  util::print_banner("§3.2 pricing example (OpenAI half-price cached)");
  const double fixed_hr = 0.10;
  const double optimized_hr = 0.90;  // ~m-fold with m = 9
  const double savings = pricing::estimated_savings(
      pricing::openai_gpt4o_mini(), fixed_hr, optimized_hr);
  std::printf("fixed hit rate 10%% -> optimized 90%%: %s cost savings "
              "(paper: ~42%%)\n",
              bench::pct(savings).c_str());
  p.json.add("fig1_pricing", {{"fixed_hit_rate", fixed_hr},
                              {"optimized_hit_rate", optimized_hr},
                              {"savings", savings}});
}

struct PhrQuery {
  const char* dataset;
  const char* query;
  double paper_orig_phr;  // Table 2, %
  double paper_ggr_phr;
  double paper_openai;  // Table 4 savings, %
  double paper_anthropic;
};
constexpr PhrQuery kPhrQueries[] = {
    {"movies", "movies-filter", 35, 86, 31, 73},
    {"products", "products-filter", 27, 83, 33, 73},
    {"bird", "bird-filter", 10, 85, 39, 79},
    {"pdmx", "pdmx-filter", 12, 57, 24, 48},
    {"beer", "beer-filter", 50, 80, 20, 55},
    {"fever", "fever-rag", 11, 67, 30, 60},
    {"squad", "squad-rag", 11, 70, 31, 63}};

void table2(Paper& p) {
  util::TablePrinter tp({"dataset", "rows", "Original PHR", "GGR PHR",
                         "delta", "paper Orig", "paper GGR"});
  for (const auto& q : kPhrQueries) {
    const auto& d = p.scaled(q.dataset);
    const auto& spec = data::query_by_id(q.query);
    const double orig =
        p.run(spec, Method::CacheOriginal, llama8b_l4()).overall_phr();
    const double ggr =
        p.run(spec, Method::CacheGgr, llama8b_l4()).overall_phr();
    tp.add_row({d.name, std::to_string(d.table.num_rows()), bench::pct(orig),
                bench::pct(ggr), "+" + util::fmt(100 * (ggr - orig), 1),
                util::fmt(q.paper_orig_phr, 0) + "%",
                util::fmt(q.paper_ggr_phr, 0) + "%"});
    p.json.add("table2", {{"dataset", q.dataset},
                          {"rows", d.table.num_rows()},
                          {"original_phr", orig},
                          {"ggr_phr", ggr},
                          {"paper_original_phr", q.paper_orig_phr / 100.0},
                          {"paper_ggr_phr", q.paper_ggr_phr / 100.0}});
  }
  tp.print();
}

// Estimated cost savings, assuming future automatic prefix caching at
// arbitrary lengths: the measured PHRs under the OpenAI and Anthropic
// pricing models.
void table4(Paper& p) {
  const auto openai = pricing::openai_gpt4o_mini();
  const auto anthropic = pricing::anthropic_claude35_sonnet();
  util::TablePrinter tp({"dataset", "Orig PHR", "GGR PHR", "OpenAI save",
                         "Anthropic save", "paper OA", "paper An"});
  for (const auto& q : kPhrQueries) {
    const auto& spec = data::query_by_id(q.query);
    const double orig =
        p.run(spec, Method::CacheOriginal, llama8b_l4()).overall_phr();
    const double ggr =
        p.run(spec, Method::CacheGgr, llama8b_l4()).overall_phr();
    const double oa = pricing::estimated_savings(openai, orig, ggr);
    const double an = pricing::estimated_savings(anthropic, orig, ggr);
    tp.add_row({p.scaled(q.dataset).name, bench::pct(orig), bench::pct(ggr),
                bench::pct(oa), bench::pct(an),
                util::fmt(q.paper_openai, 0) + "%",
                util::fmt(q.paper_anthropic, 0) + "%"});
    p.json.add("table4", {{"dataset", q.dataset},
                          {"openai_savings", oa},
                          {"anthropic_savings", an}});
  }
  tp.print();
}

/// The JSON record of `spec`'s Original and GGR runs, and of its No Cache
/// run when given.
std::vector<bench::JsonField> job_record(const data::QuerySpec& spec,
                                         const QueryRunResult& orig,
                                         const QueryRunResult& ggr,
                                         const QueryRunResult* none = nullptr) {
  std::vector<bench::JsonField> r{{"query", spec.id},
                                  {"rows_selected", ggr.rows_selected},
                                  {"original_s", orig.total_seconds},
                                  {"ggr_s", ggr.total_seconds},
                                  {"speedup_vs_original", speedup(orig, ggr)},
                                  {"original_phr", orig.overall_phr()},
                                  {"ggr_phr", ggr.overall_phr()}};
  if (none) {
    r.emplace_back("no_cache_s", none->total_seconds);
    r.emplace_back("speedup_vs_no_cache", speedup(*none, ggr));
  }
  return r;
}

/// One table row per query of `types` on Llama-3-8B / 1x L4: the cells
/// `lead(spec, dataset, ggr_run)` names under `lead_header`, the No Cache,
/// Original and GGR job times, GGR's speedups over the first two, and GGR's
/// PHR when `ggr_phr` is set.
template <typename Lead>
void job_times(Paper& p, const char* section,
               std::initializer_list<data::QueryType> types,
               std::vector<std::string> header, bool ggr_phr, Lead lead) {
  header.insert(header.end(),
                {"No Cache (s)", "Cache Orig (s)", "Cache GGR (s)",
                 "GGR vs NoCache", "GGR vs Orig"});
  if (ggr_phr) header.push_back("GGR PHR");
  util::TablePrinter tp(header);
  for (const auto type : types) {
    for (const auto& spec : data::queries_of_type(type)) {
      const auto& none = p.run(spec, Method::NoCache, llama8b_l4());
      const auto& orig = p.run(spec, Method::CacheOriginal, llama8b_l4());
      const auto& ggr = p.run(spec, Method::CacheGgr, llama8b_l4());
      std::vector<std::string> row = lead(spec, p.scaled(spec.dataset), ggr);
      row.insert(row.end(), {bench::secs(none.total_seconds),
                             bench::secs(orig.total_seconds),
                             bench::secs(ggr.total_seconds),
                             query::format_speedup(speedup(none, ggr)),
                             query::format_speedup(speedup(orig, ggr))});
      if (ggr_phr) row.push_back(bench::pct(ggr.overall_phr()));
      tp.add_row(std::move(row));
      p.json.add(section, job_record(spec, orig, ggr, &none));
    }
  }
  tp.print();
}

// The five LLM filter queries (T1).
void fig3a(Paper& p) {
  job_times(p, "fig3a", {data::QueryType::Filter}, {"dataset", "rows"}, true,
            [](const data::QuerySpec&, const data::Dataset& d,
               const QueryRunResult&) {
              return std::vector<std::string>{
                  d.name, std::to_string(d.table.num_rows())};
            });
  std::printf("\npaper reference: GGR vs NoCache 2.1-3.8x; GGR vs Original "
              "1.8-3.0x (Movies 3.8/3.0, Products 2.5/2.7, BIRD 3.8/2.6, "
              "PDMX 2.1/1.8, Beer 3.8/2.0)\n");
}

// The five projection queries (T2) and the two RAG queries (T5):
// projection gains shrink relative to filters because long decode dilutes
// prefill savings.
void fig3b(Paper& p) {
  job_times(p, "fig3b", {data::QueryType::Projection, data::QueryType::Rag},
            {"dataset", "type", "rows"}, false,
            [](const data::QuerySpec& spec, const data::Dataset& d,
               const QueryRunResult&) {
              return std::vector<std::string>{
                  d.name, data::to_string(spec.type),
                  std::to_string(d.table.num_rows())};
            });
  std::printf("\npaper reference: projection 2.4-3.7x vs NoCache / 1.5-3.4x "
              "vs Original; RAG 1.9x vs NoCache, 1.7-1.8x vs Original\n");
}

// Multi-LLM invocation (T3) and aggregation (T4) on Movies and Products:
// the multi-LLM gain is diluted by stage 1 (distinct review text).
void fig4(Paper& p) {
  job_times(p, "fig4",
            {data::QueryType::MultiLlm, data::QueryType::Aggregation},
            {"query", "rows", "sel. rows"}, false,
            [](const data::QuerySpec& spec, const data::Dataset& d,
               const QueryRunResult& ggr) {
              return std::vector<std::string>{
                  spec.id, std::to_string(d.table.num_rows()),
                  std::to_string(ggr.rows_selected)};
            });
  std::printf("\npaper reference: Movies T3 2.7x/1.7x, Products T3 2.8x/2.2x, "
              "Movies T4 3.5x/2.5x, Products T4 3.7x/2.8x\n");

  // Aggregation semantics check: report the AVG the queries compute.
  util::print_banner("aggregation results (AVG of LLM sentiment scores)");
  for (const auto& spec : data::queries_of_type(data::QueryType::Aggregation)) {
    const auto& r = p.run(spec, Method::CacheGgr, llama8b_l4());
    std::printf("%s: AVG = %.2f over %zu rows\n", spec.id.c_str(), r.aggregate,
                r.rows_selected);
    p.json.add("fig4_aggregate",
               {{"query", spec.id}, {"aggregate", r.aggregate}});
  }
}

// The filter queries on Llama-3-70B, tensor parallel over 8x L4.
void fig5(Paper& p) {
  const Setup big{llm::llama3_70b(), llm::l4_x8(), llm::profile_llama3_8b()};
  util::TablePrinter tp({"dataset", "rows", "Cache Orig (s)", "Cache GGR (s)",
                         "GGR vs Orig", "GGR PHR", "Orig PHR"});
  for (const auto& spec : data::queries_of_type(data::QueryType::Filter)) {
    const auto& d = p.scaled(spec.dataset);
    const auto& orig = p.run(spec, Method::CacheOriginal, big);
    const auto& ggr = p.run(spec, Method::CacheGgr, big);
    tp.add_row({d.name, std::to_string(d.table.num_rows()),
                bench::secs(orig.total_seconds), bench::secs(ggr.total_seconds),
                query::format_speedup(speedup(orig, ggr)),
                bench::pct(ggr.overall_phr()), bench::pct(orig.overall_phr())});
    p.json.add("fig5", job_record(spec, orig, ggr));
  }
  tp.print();
  std::printf("\npaper reference: Movies 3.2x, Products 3.3x, BIRD 2.6x, "
              "PDMX 1.9x, Beer 2.2x over Cache (Original)\n");
}

// The filter queries on Llama-3.2-1B, one L4 (Appendix D.2). PHR matches
// the 8B runs (the reordering is model-independent), but the runtime ratio
// shrinks because the small model leaves ample GPU memory — large decode
// batches are possible without cache sharing, so caching's memory relief
// matters less.
void table7(Paper& p) {
  struct Paper7 {
    const char* dataset;
    double ratio;
    double ggr_phr;
  };
  const Paper7 paper[] = {{"bird", 1.5, 83.99},
                          {"movies", 1.3, 82.10},
                          {"pdmx", 1.3, 56.00},
                          {"products", 1.4, 82.10},
                          {"beer", 1.2, 73.93}};
  const Setup tiny{llm::llama3_1b(), llm::l4(), llm::profile_llama3_8b()};
  util::TablePrinter tp({"dataset", "runtime orig/GGR (1B)",
                         "runtime orig/GGR (8B)", "Orig PHR", "GGR PHR",
                         "paper ratio", "paper GGR PHR"});
  for (const auto& row : paper) {
    const auto& spec = data::query_by_id(std::string(row.dataset) + "-filter");
    const auto& orig = p.run(spec, Method::CacheOriginal, tiny);
    const auto& ggr = p.run(spec, Method::CacheGgr, tiny);
    const double ratio_8b =
        speedup(p.run(spec, Method::CacheOriginal, llama8b_l4()),
                p.run(spec, Method::CacheGgr, llama8b_l4()));
    tp.add_row({p.scaled(row.dataset).name,
                query::format_speedup(speedup(orig, ggr)),
                query::format_speedup(ratio_8b),
                bench::pct(orig.overall_phr()), bench::pct(ggr.overall_phr()),
                query::format_speedup(row.ratio),
                util::fmt(row.ggr_phr, 1) + "%"});
    p.json.add("table7", job_record(spec, orig, ggr));
  }
  tp.print();
  std::printf("\nshape check: 1B ratios should sit below the 8B ratios while "
              "PHRs stay comparable across model sizes\n");
}

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

// Real-API cost simulation (§6.3): FEVER, 1000 rows, each field value
// duplicated 5x so prompts clear the providers' 1024-token caching
// minimum. OpenAI GPT-4o-mini (automatic caching) and Anthropic Claude 3.5
// Sonnet (conservative breakpoint on the first 1024 tokens); the paper's
// Original gets 0% cached (prefix below the minimum).
void table3(Paper& p) {
  // The paper fixes this experiment at 1000 rows regardless of scale.
  const auto rows =
      static_cast<std::size_t>(1000 * std::min(1.0, p.opt.scale * 10));
  const auto& d = p.dataset("fever", rows);

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

  const auto ggr = core::ggr(big, d.fds, paper_ggr());
  const auto original =
      core::Ordering::identity(big.num_rows(), big.num_cols());

  const auto& spec = data::query_by_id("fever-rag");
  const query::PromptEncoder enc(
      query::PromptTemplate{spec.system_prompt, spec.stage1.user_prompt});
  const auto stream_orig = build_stream(big, original, enc);
  const auto stream_ggr = build_stream(big, ggr.ordering, enc);

  util::TablePrinter tp({"model", "method", "PHR", "cost ($)", "savings",
                         "paper PHR", "paper savings"});
  const auto add = [&](const char* model, const pricing::StreamCostReport& o,
                       const pricing::StreamCostReport& g,
                       const char* paper_phr,
                       const char* paper_savings) {
    const double savings = 1.0 - g.cost_usd / o.cost_usd;
    tp.add_row({model, "Original", bench::pct(o.prompt_hit_rate),
                util::fmt(o.cost_usd, 2), "-", "0%", "-"});
    tp.add_row({model, "GGR", bench::pct(g.prompt_hit_rate),
                util::fmt(g.cost_usd, 2), bench::pct(savings), paper_phr,
                paper_savings});
    p.json.add("table3", {{"model", model},
                          {"original_phr", o.prompt_hit_rate},
                          {"ggr_phr", g.prompt_hit_rate},
                          {"original_cost_usd", o.cost_usd},
                          {"ggr_cost_usd", g.cost_usd},
                          {"savings", savings}});
  };
  const auto openai = pricing::openai_gpt4o_mini();
  add("GPT-4o-mini", pricing::price_stream_auto(openai, stream_orig),
      pricing::price_stream_auto(openai, stream_ggr), "62.2%", "32%");
  const auto anthropic = pricing::anthropic_claude35_sonnet();
  add("Claude 3.5 Sonnet",
      pricing::price_stream_breakpoint(anthropic, stream_orig),
      pricing::price_stream_breakpoint(anthropic, stream_ggr), "30.6%", "21%");
  tp.print();
}

// GGR with the paper's configuration on the full datasets (up to ~30K rows
// / 57 fields; paper: <0.01% of query time). The five relational datasets
// always run at
// the paper's full size (solver time is the point here); the RAG datasets
// honor --scale because their generation includes a KNN retrieval pass.
void table5(Paper& p) {
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
    const auto& d = r.full_size ? p.dataset(r.key, data::paper_rows(r.key))
                                : p.scaled(r.key);
    const auto res = core::ggr(d.table, d.fds, paper_ggr());
    tp.add_row({d.name, std::to_string(d.table.num_rows()),
                std::to_string(d.table.num_cols()),
                util::fmt(res.solve_seconds, 2), util::fmt(r.paper_seconds, 1),
                std::to_string(res.counters.recursion_nodes),
                std::to_string(res.counters.fallbacks)});
    p.json.add("table5", {{"dataset", r.key},
                          {"rows", d.table.num_rows()},
                          {"solver_s", res.solve_seconds},
                          {"ggr_nodes", res.counters.recursion_nodes},
                          {"ggr_fallbacks", res.counters.fallbacks}});
  }
  tp.print();
  std::printf("\n(memory: GGR keeps only the input table plus O(n) index "
              "vectors; recursion splits never copy cell data)\n");
}

// The paper tests the first {10,25,50,100,200} rows with a 2-hour cap and
// reports the largest completed run; OPHR here gives up after
// kOphrMaxNodes sub-problems. PDMX is reduced to its first 10 columns, as
// in the paper.
void table6(Paper& p) {
  util::TablePrinter tp({"sample", "OPHR hit%", "GGR hit%", "diff",
                         "OPHR time (s)", "GGR time (s)"});
  for (const auto& key : data::dataset_keys()) {
    const auto& d = p.dataset(key, 400);
    std::optional<table::Table> first10;
    if (key == "pdmx") {
      std::vector<std::size_t> cols;
      for (std::size_t c = 0; c < 10; ++c) cols.push_back(c);
      first10.emplace(d.table.project(cols));
    }
    const table::Table& t = first10 ? *first10 : d.table;

    // The largest sample OPHR solves within its budget (0 rows: none).
    std::size_t rows = 0;
    core::OphrResult ophr;
    for (std::size_t n : {10u, 25u, 50u, 100u, 200u}) {
      auto res = core::ophr(t.head(n), {.max_nodes = kOphrMaxNodes});
      if (!res) break;  // larger samples will not finish either
      ophr = std::move(*res);
      rows = n;
    }
    core::GgrResult ggr;
    double ophr_hit = 0.0, ggr_hit = 0.0;
    if (rows == 0) {
      tp.add_row({d.name + "-10", "gave up", "-", "-", "-", "-"});
    } else {
      const auto sample = t.head(rows);
      core::GgrOptions go;  // unlimited depth: quality comparison
      go.max_row_depth = -1;
      go.max_col_depth = -1;
      ggr = core::ggr(sample, d.fds, go);
      ophr_hit = hit_fraction(sample, ophr.ordering);
      ggr_hit = hit_fraction(sample, ggr.ordering);
      tp.add_row({d.name + "-" + std::to_string(rows), bench::pct(ophr_hit),
                  bench::pct(ggr_hit), util::fmt(100 * (ggr_hit - ophr_hit), 1),
                  util::fmt(ophr.solve_seconds, 2),
                  util::fmt(ggr.solve_seconds, 4)});
    }
    p.json.add("table6", {{"dataset", key},
                          {"rows", rows},
                          {"ophr_hit", ophr_hit},
                          {"ggr_hit", ggr_hit},
                          {"ophr_nodes", ophr.nodes_explored},
                          {"ggr_nodes", ggr.counters.recursion_nodes},
                          {"ophr_s", ophr.solve_seconds},
                          {"ggr_s", ggr.solve_seconds}});
  }
  tp.print();
  std::printf("\npaper reference: GGR within 0-2%% of OPHR; OPHR runtimes up "
              "to 2556 s vs GGR <=0.25 s\n");
}

std::vector<double> exact_match(const std::vector<std::string>& answers,
                                const std::vector<std::string>& truth) {
  // The paper grades 100 hand-labeled rows per dataset (FEVER: all); we
  // cap the graded subset so full-scale runs stay fast while keeping CIs
  // tight enough to see the FEVER effect.
  const std::size_t n = std::min<std::size_t>(truth.size(), 1500);
  std::vector<double> xs;
  xs.reserve(n);
  for (std::size_t i = 0; i < n; ++i)
    xs.push_back(i < answers.size() && answers[i] == truth[i] ? 1.0 : 0.0);
  return xs;
}

// Statistical bootstrapping (10,000 resamples of exact-match accuracy) for
// the Llama-3-8B, Llama-3-70B and GPT-4o task-model profiles: only FEVER +
// Llama3-8B moves, where the claim field at the end *helps*.
void fig6(Paper& p) {
  const std::size_t kResamples = 10000;
  for (const auto& profile :
       {llm::profile_llama3_8b(), llm::profile_llama3_70b(),
        llm::profile_gpt4o()}) {
    util::print_banner(profile.name);
    util::TablePrinter tp({"dataset", "orig acc (median)", "GGR acc (median)",
                           "diff", "95% CI orig", "95% CI GGR"});
    for (const std::string key :
         {"movies", "products", "bird", "pdmx", "beer", "fever"}) {
      const auto& d = p.scaled(key);
      const auto& spec =
          data::query_by_id(key + (key == "fever" ? "-rag" : "-filter"));
      const Setup setup = llama8b_l4(profile);
      const auto& orig = p.run(spec, Method::CacheOriginal, setup);
      const auto& ggr = p.run(spec, Method::CacheGgr, setup);

      const auto xs_orig = exact_match(orig.answers, d.truth);
      const auto xs_ggr = exact_match(ggr.answers, d.truth);
      util::Rng rng_o(p.opt.seed ^ 0xACC0);
      util::Rng rng_g(p.opt.seed ^ 0xACC1);
      const auto b_orig = util::bootstrap_mean(xs_orig, kResamples, rng_o);
      const auto b_ggr = util::bootstrap_mean(xs_ggr, kResamples, rng_g);

      const double diff = b_ggr.median - b_orig.median;
      tp.add_row({d.name, bench::pct(b_orig.median), bench::pct(b_ggr.median),
                  (diff >= 0 ? "+" : "") + util::fmt(100 * diff, 1) + "%",
                  "[" + bench::pct(b_orig.ci_low) + ", " +
                      bench::pct(b_orig.ci_high) + "]",
                  "[" + bench::pct(b_ggr.ci_low) + ", " +
                      bench::pct(b_ggr.ci_high) + "]"});
      p.json.add("fig6", {{"profile", profile.name},
                          {"query", spec.id},
                          {"original_median", b_orig.median},
                          {"ggr_median", b_ggr.median},
                          {"original_ci_low", b_orig.ci_low},
                          {"original_ci_high", b_orig.ci_high},
                          {"ggr_ci_low", b_ggr.ci_low},
                          {"ggr_ci_high", b_ggr.ci_high}});
    }
    tp.print();
  }
  std::printf("\npaper reference (median diff GGR - original):\n"
              "  Llama3-8B : +3 -1 +0 +1 -6 +14.2 (FEVER outlier: claim "
              "moved to prompt end)\n"
              "  Llama3-70B: +4 +1 +1 -1 -3 +1.7\n"
              "  GPT-4o    : -3 -2 -1 +4 -3 -2.4\n");
}

// (d) policy ladder: original vs sorted vs stats-fixed vs GGR vs GGR+FD —
//     how much each ingredient of the paper's design buys;
// (a)+(b) functional dependencies on/off x recursion depth limits;
// (c) HITCOUNT early-stop threshold sweep;
// then local-search refinement, windowed GGR, and the literal-paper
// (unsquared) HITCOUNT.
void ablation(Paper& p) {
  {
    util::print_banner("policy ladder (squared-length hit fraction)");
    util::TablePrinter tp({"dataset", "original", "sorted rows",
                           "stats-fixed", "GGR no-FD", "GGR + FD"});
    for (const auto& key : data::dataset_keys()) {
      const auto& d = p.scaled(key, 2000);
      auto no_fd = paper_ggr();
      no_fd.use_fds = false;
      const double cells[] = {
          hit_fraction(d.table, core::original_ordering(d.table)),
          hit_fraction(d.table, core::sorted_original_fields(d.table)),
          hit_fraction(d.table, core::stats_fixed_ordering(d.table)),
          hit_fraction(d.table, core::ggr(d.table, no_fd).ordering),
          hit_fraction(d.table,
                       core::ggr(d.table, d.fds, paper_ggr()).ordering)};
      tp.add_row({d.name, bench::pct(cells[0]), bench::pct(cells[1]),
                  bench::pct(cells[2]), bench::pct(cells[3]),
                  bench::pct(cells[4])});
      p.json.add("ablation_ladder", {{"dataset", key},
                                     {"original", cells[0]},
                                     {"sorted_rows", cells[1]},
                                     {"stats_fixed", cells[2]},
                                     {"ggr_no_fd", cells[3]},
                                     {"ggr_fd", cells[4]}});
    }
    tp.print();
  }

  {
    util::print_banner("depth sweep (movies): PHC fraction / solver ms");
    util::TablePrinter tp({"row depth", "col depth", "no-FD frac", "no-FD ms",
                           "FD frac", "FD ms", "fallbacks (FD)"});
    const auto& d = p.scaled("movies", 3000);
    for (int rd : {0, 1, 2, 4, 8, 16}) {
      for (int cd : {1, 2, 4}) {
        core::GgrOptions go;
        go.max_row_depth = rd;
        go.max_col_depth = cd;
        auto go_nofd = go;
        go_nofd.use_fds = false;
        const auto no_fd = core::ggr(d.table, go_nofd);
        const auto with_fd = core::ggr(d.table, d.fds, go);
        const double no_fd_hit = hit_fraction(d.table, no_fd.ordering);
        const double fd_hit = hit_fraction(d.table, with_fd.ordering);
        tp.add_row({std::to_string(rd), std::to_string(cd),
                    bench::pct(no_fd_hit),
                    util::fmt(no_fd.solve_seconds * 1e3, 1),
                    bench::pct(fd_hit),
                    util::fmt(with_fd.solve_seconds * 1e3, 1),
                    std::to_string(with_fd.counters.fallbacks)});
        p.json.add("ablation_depth",
                   {{"row_depth", rd},
                    {"col_depth", cd},
                    {"no_fd_hit", no_fd_hit},
                    {"no_fd_ms", no_fd.solve_seconds * 1e3},
                    {"fd_hit", fd_hit},
                    {"fd_ms", with_fd.solve_seconds * 1e3},
                    {"fd_fallbacks", with_fd.counters.fallbacks}});
      }
    }
    tp.print();
  }

  {
    util::print_banner("HITCOUNT threshold sweep (products)");
    util::TablePrinter tp(
        {"threshold", "hit frac", "solver ms", "recursion nodes"});
    const auto& d = p.scaled("products", 3000);
    for (double thr : {0.0, 1e3, 1e4, 1e5, 1e6, 1e9}) {
      core::GgrOptions go;
      go.max_row_depth = -1;
      go.max_col_depth = -1;
      go.hitcount_threshold = thr;
      const auto res = core::ggr(d.table, d.fds, go);
      const double hit = hit_fraction(d.table, res.ordering);
      tp.add_row({thr == 0.0 ? "off" : util::fmt(thr, 0), bench::pct(hit),
                  util::fmt(res.solve_seconds * 1e3, 1),
                  std::to_string(res.counters.recursion_nodes)});
      p.json.add("ablation_threshold",
                 {{"threshold", thr},
                  {"hit", hit},
                  {"ms", res.solve_seconds * 1e3},
                  {"ggr_nodes", res.counters.recursion_nodes}});
    }
    tp.print();
  }

  // Extension: does cheap local search close the GGR gap?
  {
    util::print_banner("local-search refinement (hit fraction / extra ms)");
    util::TablePrinter tp({"dataset", "GGR", "GGR+refine", "moves",
                           "refine ms"});
    for (const char* key : {"movies", "pdmx", "beer"}) {
      const auto& d = p.scaled(key, 2000);
      const auto base = core::ggr(d.table, d.fds, paper_ggr());
      const auto refined = core::refine_ordering(d.table, base.ordering, {});
      const double base_hit = hit_fraction(d.table, base.ordering);
      const double refined_hit = hit_fraction(d.table, refined.ordering);
      tp.add_row({d.name, bench::pct(base_hit), bench::pct(refined_hit),
                  std::to_string(refined.moves_applied),
                  util::fmt(refined.seconds * 1e3, 1)});
      p.json.add("ablation_refine", {{"dataset", key},
                                     {"ggr_hit", base_hit},
                                     {"refined_hit", refined_hit},
                                     {"moves", refined.moves_applied},
                                     {"ms", refined.seconds * 1e3}});
    }
    tp.print();
  }

  // Streaming extension: how much buffering do the gains need?
  {
    util::print_banner(
        "windowed GGR (movies): hit fraction vs reorder buffer size");
    util::TablePrinter tp({"window rows", "hit frac", "windows", "solver ms"});
    const auto& d = p.scaled("movies", 3000);
    for (std::size_t window : {16u, 64u, 256u, 1024u, 0u}) {
      core::WindowedOptions wo;
      wo.window_rows = window;
      wo.ggr = paper_ggr();
      const auto res = core::windowed_ggr(d.table, d.fds, wo);
      const double hit = hit_fraction(d.table, res.ordering);
      tp.add_row({window == 0 ? "full table" : std::to_string(window),
                  bench::pct(hit), std::to_string(res.windows),
                  util::fmt(res.solve_seconds * 1e3, 1)});
      p.json.add("ablation_window", {{"window_rows", window},
                                     {"hit", hit},
                                     {"windows", res.windows},
                                     {"ms", res.solve_seconds * 1e3}});
    }
    tp.print();
  }

  // Literal-paper HITCOUNT (unsquared inferred lengths) vs PHC-unit score.
  {
    util::print_banner("HITCOUNT inferred-length squaring (beer)");
    const auto& d = p.scaled("beer", 3000);
    auto literal = paper_ggr();
    literal.square_inferred_lengths = false;
    const double squared =
        hit_fraction(d.table, core::ggr(d.table, d.fds, paper_ggr()).ordering);
    const double lit =
        hit_fraction(d.table, core::ggr(d.table, d.fds, literal).ordering);
    std::printf("squared (ours): %s   literal (Algorithm 1 line 6): %s\n",
                bench::pct(squared).c_str(), bench::pct(lit).c_str());
    p.json.add("ablation_squaring",
               {{"squared_hit", squared}, {"literal_hit", lit}});
  }
}

/// The sections, in the paper's order: a title and the function that
/// prints its tables and adds its JSON records.
struct Section {
  const char* name;
  void (*run)(Paper&);
};

constexpr Section kSections[] = {
    {"Fig 1 — fixed field ordering case studies", fig1},
    {"Table 2 — PHR (%), filter + RAG queries [simulated]", table2},
    {"Fig 3a — filter queries (T1), Llama-3-8B, 1x L4 [simulated]", fig3a},
    {"Fig 3b — projection (T2) + RAG (T5), Llama-3-8B, 1x L4 [simulated]",
     fig3b},
    {"Fig 4 — multi-LLM (T3) + aggregation (T4), Llama-3-8B [simulated]",
     fig4},
    {"Fig 5 — filter queries (T1), Llama-3-70B, 8x L4 TP [simulated]", fig5},
    {"Table 3 — OpenAI / Anthropic API cost, FEVER-1000, fields x5", table3},
    {"Table 4 — estimated cost savings from PHR [simulated]", table4},
    {"Table 5 — GGR solver time (s)", table5},
    {"Fig 6 — accuracy, original vs GGR ordering", fig6},
    {"Table 6 — OPHR vs GGR on small samples", table6},
    {"Table 7 — filter queries (T1), Llama-3.2-1B, 1x L4 [simulated]", table7},
    {"Ablations — GGR design choices", ablation},
};

}  // namespace

int main(int argc, char** argv) {
  const auto opt = bench::parse_options(argc, argv, bench::kJson);
  Paper paper(opt);
  bench::print_header(
      "Paper evaluation: Figs. 1, 3-6, Tables 2-7, GGR ablation", opt);
  for (const Section& s : kSections) {
    std::printf("=== %s ===\n\n", s.name);
    s.run(paper);
    std::printf("\n");
  }
  paper.json.write();
  return 0;
}
