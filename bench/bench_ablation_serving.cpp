// Serving-side ablations: how the end-to-end benefit of GGR reordering
// depends on (a) KV-cache size, (b) maximum batch size, and (c) cache
// block granularity. These isolate the mechanisms behind Figs 3-5 and
// Table 7: reordering matters most when the cache is oversubscribed, and
// sharing buys extra batch head-room when memory is tight.

#include "bench_common.hpp"

using namespace llmq;

int main(int argc, char** argv) {
  const auto opt = bench::parse_options(argc, argv, bench::kJson);
  bench::print_header("Ablations — serving engine", opt);
  bench::JsonReport json("bench_ablation_serving", opt);

  const char* key = "movies";
  const auto d = bench::load(key, opt, 2000);
  const auto& spec = data::query_by_id("movies-filter");
  const double base_kvf = static_cast<double>(d.table.num_rows()) /
                          static_cast<double>(data::paper_rows(key));

  // (a) cache size sweep: GGR's edge grows as the pool shrinks.
  {
    util::print_banner("KV pool sweep (fraction of data-proportional pool)");
    util::TablePrinter tp({"pool frac", "orig PHR", "GGR PHR", "orig (s)",
                           "GGR (s)", "GGR vs orig"});
    for (double mult : {8.0, 4.0, 2.0, 1.0, 0.5}) {
      auto cfg_o = query::ExecConfig::standard(query::Method::CacheOriginal);
      auto cfg_g = query::ExecConfig::standard(query::Method::CacheGgr);
      cfg_o.scale_kv_pool(base_kvf * mult);
      cfg_g.scale_kv_pool(base_kvf * mult);
      const auto ro = query::run_query(d, spec, cfg_o);
      const auto rg = query::run_query(d, spec, cfg_g);
      tp.add_row({util::fmt(mult, 1) + "x", bench::pct(ro.overall_phr()),
                  bench::pct(rg.overall_phr()), bench::secs(ro.total_seconds),
                  bench::secs(rg.total_seconds),
                  query::format_speedup(ro.total_seconds / rg.total_seconds)});
      json.add("kv_pool_sweep", {{"pool_mult", mult},
                                 {"original_phr", ro.overall_phr()},
                                 {"ggr_phr", rg.overall_phr()},
                                 {"original_s", ro.total_seconds},
                                 {"ggr_s", rg.total_seconds}});
    }
    tp.print();
  }

  // (b) batch size sweep.
  {
    util::print_banner("max batch size sweep");
    util::TablePrinter tp({"max batch", "orig (s)", "GGR (s)", "GGR vs orig",
                           "GGR mean batch"});
    for (std::size_t bs : {1u, 4u, 8u, 16u, 32u, 64u}) {
      auto cfg_o = query::ExecConfig::standard(query::Method::CacheOriginal);
      auto cfg_g = query::ExecConfig::standard(query::Method::CacheGgr);
      cfg_o.engine.max_batch_size = bs;
      cfg_g.engine.max_batch_size = bs;
      cfg_o.scale_kv_pool(base_kvf);
      cfg_g.scale_kv_pool(base_kvf);
      const auto ro = query::run_query(d, spec, cfg_o);
      const auto rg = query::run_query(d, spec, cfg_g);
      tp.add_row({std::to_string(bs), bench::secs(ro.total_seconds),
                  bench::secs(rg.total_seconds),
                  query::format_speedup(ro.total_seconds / rg.total_seconds),
                  util::fmt(rg.stages[0].engine.mean_batch_size(), 1)});
      json.add("batch_size_sweep", {{"max_batch", bs},
                                    {"original_s", ro.total_seconds},
                                    {"ggr_s", rg.total_seconds}});
    }
    tp.print();
  }

  // (c) block granularity sweep: coarser blocks lose partial-prefix hits.
  {
    util::print_banner("cache block size sweep (GGR)");
    util::TablePrinter tp({"block tokens", "GGR PHR", "GGR (s)"});
    for (std::size_t block : {4u, 8u, 16u, 32u, 64u, 128u}) {
      auto cfg = query::ExecConfig::standard(query::Method::CacheGgr);
      cfg.engine.block_size = block;
      cfg.scale_kv_pool(base_kvf);
      const auto r = query::run_query(d, spec, cfg);
      tp.add_row({std::to_string(block), bench::pct(r.overall_phr()),
                  bench::secs(r.total_seconds)});
      json.add("block_size_sweep", {{"block_tokens", block},
                                    {"ggr_phr", r.overall_phr()},
                                    {"ggr_s", r.total_seconds}});
    }
    tp.print();
  }
  json.write();
  return 0;
}
