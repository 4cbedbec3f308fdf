// Chunked prefill + continuous batching — decode stalls vs chunk size.
//
// Monolithic admission prefill (prefill_chunk_tokens = 0) freezes every
// in-flight decode for the full prefill of whatever gets admitted: on a
// mixed stream where batch tenants submit long documents and interactive
// tenants short rows, that head-of-line blocking lands directly on the
// interactive TTFT/ITL tails. This bench sweeps:
//
//   1. chunk-size x workload-mix: prefill chunk {0 = monolithic, 32..256}
//      against short-only / mixed / document-heavy streams. The headline:
//      on the document-heavy mix, chunking cuts interactive p99 TTFT and
//      p99 ITL (and the engine's worst decode stall) while total token
//      accounting is conserved;
//   2. deep-backlog admission: wall-clock per admitted request when a
//      multi-thousand-request backlog lands on a small-batch engine at
//      once — near-flat scaling across depths pins the per-class FIFO
//      admission queues (the old linear-scan pick + mid-deque erase was
//      O(P^2) per step under backlog).
//
// Use --json <path> for machine-readable results.

#include <chrono>
#include <string>

#include "bench_common.hpp"
#include "llm/engine_session.hpp"
#include "obs/export.hpp"
#include "serve/online.hpp"

using namespace llmq;

namespace {

using table::Schema;
using table::Table;

/// Every `long_every`-th row carries a ~`long_words`-word document cell;
/// the rest are short labels — the mixed long-prefill / short-decode
/// serving shape.
Table mixed_table(std::size_t n, std::size_t long_every,
                  std::size_t long_words) {
  Table t(Schema::of_names({"label", "document"}));
  for (std::size_t r = 0; r < n; ++r) {
    std::string doc;
    if (long_every > 0 && r % long_every == 0) {
      for (std::size_t w = 0; w < long_words; ++w)
        doc += "token" + std::to_string(r) + "word" + std::to_string(w) + " ";
    } else {
      doc = "short entry " + std::to_string(r);
    }
    t.append_row({"label_" + std::to_string(r % 5), std::move(doc)});
  }
  return t;
}

struct Mix {
  const char* name;
  std::size_t long_every;  // 0 = no long rows at all
  std::size_t long_words;
  double rate;
};

/// Interactive tenants hit short rows, a batch tenant replays the long
/// documents (when the mix has any) — classes assigned through the
/// arrivals_from_trace tenant->class mapping.
std::vector<serve::Arrival> mixed_stream(const Table& t, std::size_t n,
                                         const Mix& mix) {
  std::vector<double> times;
  std::vector<std::size_t> rows;
  std::vector<std::uint32_t> tenants;
  std::size_t next_short = 1, next_long = 0;
  for (std::size_t i = 0; i < n; ++i) {
    times.push_back(static_cast<double>(i) / mix.rate);
    if (mix.long_every > 0 && i % 3 == 0) {
      rows.push_back(next_long % t.num_rows());
      next_long += mix.long_every;
      tenants.push_back(1);
    } else {
      rows.push_back(next_short % t.num_rows());
      ++next_short;
      if (mix.long_every > 0 && next_short % mix.long_every == 0) ++next_short;
      tenants.push_back(0);
    }
  }
  return serve::arrivals_from_trace(
      times, rows, tenants,
      serve::classes_for_tenants(tenants, {llm::PriorityClass::Interactive,
                                           llm::PriorityClass::Batch}));
}

serve::OnlineConfig serving_config() {
  serve::OnlineConfig cfg;
  cfg.prompt.system_prompt = "You are a data analyst.";
  cfg.prompt.user_prompt = "Classify the row.";
  cfg.avg_output_tokens = 6.0;
  cfg.scheduler.policy = serve::Policy::Fifo;
  cfg.scheduler.window_rows = 4;
  cfg.scheduler.max_wait_seconds = 0.25;
  cfg.engine.max_batch_size = 8;
  cfg.engine.kv_pool_blocks_override = 1u << 14;
  cfg.ttft_slo_seconds = 1.0;
  return cfg;
}

// ---- deep-backlog admission microbench ----

llm::ModelSpec tiny_model() {
  llm::ModelSpec m;
  m.name = "tiny";
  m.params = 1e9;
  m.n_layers = 8;
  m.hidden_dim = 512;
  m.n_heads = 8;
  m.n_kv_heads = 8;
  m.head_dim = 64;
  m.dtype_bytes = 2;
  return m;
}

/// Drop `depth` tiny requests (cycling all three classes) on an engine
/// with few batch slots and time the drain: admission work dominates, so
/// microseconds per request growing with depth would expose a
/// superlinear admission path.
double backlog_us_per_request(std::size_t depth) {
  llm::EngineConfig ec;
  ec.max_batch_size = 16;
  ec.block_size = 16;
  ec.kv_pool_blocks_override = 1u << 16;
  const llm::ServingEngine engine(llm::CostModel(tiny_model(), llm::l4()), ec);
  auto cache = engine.make_session_cache();
  llm::EngineSession session(engine, cache);
  constexpr llm::PriorityClass kClasses[] = {llm::PriorityClass::Interactive,
                                             llm::PriorityClass::Standard,
                                             llm::PriorityClass::Batch};
  for (std::size_t i = 0; i < depth; ++i) {
    llm::Request r;
    r.id = i;
    r.priority = kClasses[i % 3];
    r.output_tokens = 1;
    for (std::size_t k = 0; k < 8; ++k)
      r.prompt.push_back(static_cast<tokenizer::TokenId>(i * 16 + k));
    session.submit(std::move(r));
  }
  const auto t0 = std::chrono::steady_clock::now();
  const std::size_t done = session.drain().size();
  const auto t1 = std::chrono::steady_clock::now();
  if (done != depth) std::abort();  // accounting bug, not a perf question
  return std::chrono::duration<double, std::micro>(t1 - t0).count() /
         static_cast<double>(depth);
}

}  // namespace

int main(int argc, char** argv) {
  const auto opt = bench::parse_options(argc, argv, bench::kJsonAndTrace);
  bench::print_header(
      "Chunked prefill — decode stalls, tails, and admission scaling", opt);
  bench::JsonReport json("bench_chunked_prefill", opt);
  bool all_conserved = true;

  const std::size_t n_rows = std::max<std::size_t>(
      50, static_cast<std::size_t>(640.0 * opt.scale));
  const std::size_t n_arrivals = n_rows + n_rows / 8;

  // ---- 1. chunk-size x workload-mix sweep. ----
  {
    util::print_banner(
        "chunk sweep (prefill chunk tokens x workload mix, 0 = monolithic)");
    util::TablePrinter tp({"mix", "chunk", "int p99 TTFT (ms)",
                           "int p99 ITL (ms)", "max stall (ms)",
                           "batch p99 e2e (ms)", "goodput (r/s)"});
    const Mix mixes[] = {
        {"short-only", 0, 0, 12.0},
        {"mixed-docs", 4, 150, 12.0},
        {"heavy-docs", 4, 300, 12.0},
    };
    for (const Mix& mix : mixes) {
      const Table t = mixed_table(n_rows, mix.long_every, mix.long_words);
      const table::FdSet fds;
      const auto arrivals = mixed_stream(t, n_arrivals, mix);
      double mono_ttft = 0.0, mono_itl = 0.0;
      for (std::size_t chunk : {0u, 32u, 64u, 128u, 256u}) {
        serve::OnlineConfig cfg = serving_config();
        cfg.engine.prefill_chunk_tokens = chunk;
        const auto r = serve::run_online(t, fds, arrivals, cfg);
        const auto& ic = r.per_class[static_cast<std::size_t>(
            llm::PriorityClass::Interactive)];
        const auto& bc =
            r.per_class[static_cast<std::size_t>(llm::PriorityClass::Batch)];
        if (chunk == 0) {
          mono_ttft = ic.latency.p99_ttft;
          mono_itl = ic.latency.p99_itl;
        }
        // Conservation: every prompt token is a hit or computed exactly
        // once, and the chunk ledger covers the computed work.
        const bool conserved =
            r.engine.cached_prompt_tokens + r.engine.computed_prompt_tokens ==
                r.engine.prompt_tokens &&
            (chunk == 0 || r.engine.chunked_prefill_tokens ==
                               r.engine.computed_prompt_tokens +
                                   r.engine.recompute_prefill_tokens);
        all_conserved = all_conserved && conserved;
        tp.add_row({mix.name, std::to_string(chunk),
                    bench::ms(ic.latency.p99_ttft),
                    bench::ms(ic.latency.p99_itl),
                    bench::ms(r.engine.max_decode_stall_seconds),
                    bench::ms(bc.latency.p99_e2e),
                    util::fmt(r.latency.goodput_rps, 1)});
        json.add("chunk_mix_sweep",
                 {{"mix", mix.name},
                  {"chunk_tokens", chunk},
                  {"interactive_p99_ttft_s", ic.latency.p99_ttft},
                  {"interactive_p99_itl_s", ic.latency.p99_itl},
                  {"max_decode_stall_s", r.engine.max_decode_stall_seconds},
                  {"batch_p99_e2e_s", bc.latency.p99_e2e},
                  {"goodput_rps", r.latency.goodput_rps},
                  {"prompt_tokens", r.engine.prompt_tokens},
                  {"chunked_prefill_tokens", r.engine.chunked_prefill_tokens},
                  {"tokens_conserved", conserved ? "yes" : "NO"}});
      }
      if (mono_ttft > 0.0 && mix.long_every > 0) {
        serve::OnlineConfig cfg = serving_config();
        cfg.engine.prefill_chunk_tokens = 64;
        const auto r = serve::run_online(t, fds, arrivals, cfg);
        const auto& ic = r.per_class[static_cast<std::size_t>(
            llm::PriorityClass::Interactive)];
        std::printf("  %s @ chunk=64: int p99 TTFT %s -> %s ms, "
                    "p99 ITL %s -> %s ms vs monolithic\n",
                    mix.name, bench::ms(mono_ttft).c_str(),
                    bench::ms(ic.latency.p99_ttft).c_str(),
                    bench::ms(mono_itl).c_str(),
                    bench::ms(ic.latency.p99_itl).c_str());
      }
    }
    tp.print();
  }

  // ---- tracing: preemption-and-chunking-rich representative run. ----
  if (!opt.trace_path.empty()) {
    const Mix mix = {"heavy-docs", 4, 300, 12.0};
    const Table t = mixed_table(n_rows, mix.long_every, mix.long_words);
    const table::FdSet fds;
    const auto arrivals = mixed_stream(t, n_arrivals, mix);
    serve::OnlineConfig cfg = serving_config();
    cfg.engine.prefill_chunk_tokens = 64;
    obs::TraceLog log;
    obs::TimeSeries ts;
    cfg.trace.sink = &log;
    cfg.trace.timeseries = &ts;
    (void)serve::run_online(t, fds, arrivals, cfg);
    bench::write_trace(opt, log, &ts);
    std::printf("\n[trace: %zu events (heavy-docs, chunk=64) -> %s "
                "(+ %s.jsonl)]\n",
                log.size(), opt.trace_path.c_str(), opt.trace_path.c_str());
  }

  // ---- 2. deep-backlog admission scaling. ----
  {
    util::print_banner(
        "deep-backlog admission (wall-clock per request, mixed classes)");
    util::TablePrinter tp({"backlog depth", "us / request"});
    const std::size_t base = std::max<std::size_t>(
        256, static_cast<std::size_t>(16384.0 * opt.scale));
    for (const std::size_t depth : {base / 4, base / 2, base}) {
      const double us = backlog_us_per_request(depth);
      tp.add_row({std::to_string(depth), util::fmt(us, 3)});
      json.add("deep_backlog",
               {{"depth", depth}, {"us_per_request", us}});
    }
    tp.print();
    std::printf("near-flat us/request across depths = amortized near-linear "
                "admission (per-class FIFO queues)\n");
  }

  json.write();
  if (!all_conserved) {
    std::fprintf(stderr,
                 "FAIL: token accounting not conserved in at least one "
                 "configuration (see tokens_conserved in the sweep)\n");
    return 1;  // the benchjson suite and CI smoke-run require exit 0
  }
  return 0;
}
