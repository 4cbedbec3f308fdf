// Hot-path microbenchmarks: the per-token inner loops the serving stack
// spends its time in at fleet scale — token_ops kernels (LCP / equality /
// block hash, SIMD vs scalar), RadixTree child lookup across fan-outs,
// the end-to-end lookup→admit→release cache cycle, batch eviction, the
// evicting cache cycle at two arena sizes, prompt tokenization of every
// dataset's rows, and a steady-state allocation audit that asserts the
// arena claim: once warm, cache churn performs ZERO heap allocations and
// carves no new node slots.
//
// Emits the standard BENCH_*.json envelope. Deterministic keys
// (checksums, counts, token fingerprints, steady_allocs) are
// golden-diffed exactly. Wall-clock keys are compared only between
// release/no-sanitizer builds (tests/benchjson/test_golden_diff.cpp):
// the kernel and fan-out sections are gated on ratios of two timings
// from the same run (speedups, hit_vs_fanout4), which a slow host moves
// far less than it moves either timing; their us/op values and the
// tokenize timings are report-only. The bench exits non-zero if any
// bit-identity or zero-allocation assertion fails, so a plain smoke run
// doubles as a correctness check.

#include <algorithm>
#include <atomic>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <new>
#include <span>
#include <string>
#include <vector>

#include "bench_common.hpp"
#include "cache/prefix_cache.hpp"
#include "cache/radix_tree.hpp"
#include "query/prompt.hpp"
#include "tokenizer/tokenizer.hpp"
#include "util/rng.hpp"
#include "util/simd.hpp"
#include "util/token_ops.hpp"

namespace {
// Global allocation counter: every operator new in the process bumps it,
// which is what lets alloc_steadystate() assert "zero heap allocations
// per steady-state request" at the whole-program level rather than
// trusting any container's bookkeeping.
std::atomic<std::uint64_t> g_allocs{0};
}  // namespace

void* operator new(std::size_t n) {
  g_allocs.fetch_add(1, std::memory_order_relaxed);
  if (void* p = std::malloc(n ? n : 1)) return p;
  throw std::bad_alloc();
}
void* operator new[](std::size_t n) { return ::operator new(n); }
void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }

using namespace llmq;

namespace {

namespace ops = util::token_ops;

volatile std::uint64_t g_sink = 0;  // defeats dead-code elimination

void fail(const char* what) {
  std::fprintf(stderr, "bench_micro: ASSERTION FAILED: %s\n", what);
  std::exit(1);
}

std::vector<tokenizer::TokenId> random_tokens(util::Rng& rng, std::size_t n) {
  std::vector<tokenizer::TokenId> v(n);
  for (auto& t : v) t = static_cast<tokenizer::TokenId>(rng.next_u64());
  return v;
}

/// Iterations per timed rep, sized so each rep touches ~4M tokens at
/// --full and proportionally fewer at small scales (floors keep the
/// timer above its granularity).
std::size_t iters_for(double scale, std::size_t tokens_per_iter) {
  const double target = 4.0e6 * std::max(scale, 0.01);
  const auto it = static_cast<std::size_t>(target /
                                           static_cast<double>(tokens_per_iter));
  return std::max<std::size_t>(16, it);
}

// ---- Section: token_ops (SIMD vs scalar kernels). ----

void bench_token_ops(const bench::BenchOptions& opt, bench::JsonReport& json) {
  const char* isa = util::simd::name(util::simd::active_isa());
  std::printf("token_ops kernels (dispatched isa=%s vs scalar)\n", isa);
  std::printf("  %6s  %10s %10s %8s  %10s %10s %8s\n", "len", "lcp_us",
              "lcp_sc_us", "speedup", "hash_us", "hash_sc_us", "speedup");

  const bench::WallClockTimer timer(5, 2);
  util::Rng rng(opt.seed);
  for (const std::size_t len : {std::size_t{16}, std::size_t{64},
                                std::size_t{513}, std::size_t{4096}}) {
    const auto a = random_tokens(rng, len);
    const auto b = a;  // identical: LCP/equal walk the full run (worst case)
    const std::size_t iters = iters_for(opt.scale, len);

    // Bit-identity cross-check before timing anything.
    if (ops::lcp(a.data(), b.data(), len) !=
        ops::scalar::lcp(a.data(), b.data(), len))
      fail("dispatched lcp != scalar lcp");
    if (ops::hash(a.data(), len) != ops::scalar::hash(a.data(), len))
      fail("dispatched hash != scalar hash");
    if (ops::equal(a.data(), b.data(), len) !=
        ops::scalar::equal(a.data(), b.data(), len))
      fail("dispatched equal != scalar equal");

    const auto time_per_op = [&](auto&& fn) {
      const double s = timer.min_seconds([&] {
        std::uint64_t acc = 0;
        for (std::size_t i = 0; i < iters; ++i) acc += fn();
        g_sink = acc;
      });
      return s / static_cast<double>(iters) * 1e6;
    };

    const double lcp_us =
        time_per_op([&] { return ops::lcp(a.data(), b.data(), len); });
    const double lcp_sc_us =
        time_per_op([&] { return ops::scalar::lcp(a.data(), b.data(), len); });
    const double hash_us = time_per_op([&] { return ops::hash(a.data(), len); });
    const double hash_sc_us =
        time_per_op([&] { return ops::scalar::hash(a.data(), len); });
    const double eq_us = time_per_op(
        [&] { return ops::equal(a.data(), b.data(), len) ? 1u : 0u; });
    const double eq_sc_us = time_per_op(
        [&] { return ops::scalar::equal(a.data(), b.data(), len) ? 1u : 0u; });

    // 64-bit hash folded to 32 bits so it survives the double-typed JSON
    // number path exactly.
    const std::uint64_t h = ops::hash(a.data(), len);
    const auto hash_check = static_cast<std::size_t>(h & 0xFFFFFFFFu);

    std::printf("  %6zu  %10.4f %10.4f %7.2fx  %10.4f %10.4f %7.2fx\n", len,
                lcp_us, lcp_sc_us, lcp_sc_us / lcp_us, hash_us, hash_sc_us,
                hash_sc_us / hash_us);
    json.add("token_ops",
             {{"len", len},
              {"isa", isa},
              {"lcp_us", lcp_us},
              {"lcp_scalar_us", lcp_sc_us},
              {"lcp_speedup", lcp_sc_us / lcp_us},
              {"hash_us", hash_us},
              {"hash_scalar_us", hash_sc_us},
              {"hash_speedup", hash_sc_us / hash_us},
              {"equal_us", eq_us},
              {"equal_scalar_us", eq_sc_us},
              {"hash_check", hash_check}});
  }
  std::printf("\n");
}

// ---- Section: radix_fanout (child lookup vs fan-out). ----

void bench_radix_fanout(const bench::BenchOptions& opt,
                        bench::JsonReport& json) {
  constexpr std::size_t kBlock = 16;
  std::printf("radix find_child (block=%zu tokens)\n", kBlock);
  std::printf("  %7s  %10s %10s %9s\n", "fanout", "hit_us", "miss_us",
              "vs_fan4");

  const bench::WallClockTimer timer(5, 2);
  double fanout4_hit_us = 0.0;
  for (const std::size_t fanout :
       {std::size_t{4}, std::size_t{64}, std::size_t{512}}) {
    util::Rng rng(opt.seed + fanout);
    cache::RadixTree tree(kBlock);
    std::vector<std::vector<tokenizer::TokenId>> blocks;
    blocks.reserve(fanout);
    for (std::size_t i = 0; i < fanout; ++i) {
      blocks.push_back(random_tokens(rng, kBlock));
      tree.insert(blocks.back(), i);
    }
    const auto miss = random_tokens(rng, kBlock);

    const std::size_t iters = iters_for(opt.scale, kBlock);
    std::uint64_t check = 0;
    const auto probe = [&](std::span<const tokenizer::TokenId> p) {
      return static_cast<std::uint64_t>(tree.match_tokens(p));
    };
    for (const auto& blk : blocks) check += probe(blk);
    check += probe(miss);

    const double hit_us = timer.min_seconds([&] {
                            std::uint64_t acc = 0;
                            for (std::size_t i = 0; i < iters; ++i)
                              acc += probe(blocks[i % fanout]);
                            g_sink = acc;
                          }) /
                          static_cast<double>(iters) * 1e6;
    const double miss_us = timer.min_seconds([&] {
                             std::uint64_t acc = 0;
                             for (std::size_t i = 0; i < iters; ++i)
                               acc += probe(miss);
                             g_sink = acc;
                           }) /
                           static_cast<double>(iters) * 1e6;

    if (fanout == 4) fanout4_hit_us = hit_us;
    // Hashed child lookup over the linear scan a small node uses: a host
    // speed change moves both terms, a lost child index only this one.
    const double hit_vs_fanout4 = hit_us / fanout4_hit_us;

    std::printf("  %7zu  %10.4f %10.4f %8.2fx\n", fanout, hit_us, miss_us,
                hit_vs_fanout4);
    json.add("radix_fanout", {{"fanout", fanout},
                              {"hit_us", hit_us},
                              {"miss_us", miss_us},
                              {"hit_vs_fanout4", hit_vs_fanout4},
                              {"check", static_cast<std::size_t>(check)}});
  }
  std::printf("\n");
}

// ---- Section: radix_stream (full cache cycle on a shared-prefix mix). ----

struct StreamOutcome {
  std::uint64_t hit_tokens = 0;
  std::uint64_t inserted_blocks = 0;
};

StreamOutcome run_stream(
    const std::vector<std::vector<tokenizer::TokenId>>& prompts) {
  cache::PrefixCache pc(cache::CacheConfig{16, 0, true});
  for (const auto& p : prompts) {
    auto lease = pc.lookup(p);
    pc.admit(p, lease);
    pc.release(lease);
  }
  const cache::CacheStats s = pc.stats();
  return {s.hit_tokens, s.inserted_blocks};
}

/// The same prompts through a bare RadixTree: one match_into and one
/// insert_into each, with no lease, pin, stats or path pool. Returns the
/// matched tokens, which must equal the cache's hit tokens.
std::uint64_t run_tree_stream(
    const std::vector<std::vector<tokenizer::TokenId>>& prompts) {
  cache::RadixTree tree(16);
  std::vector<cache::NodeId> path;
  std::uint64_t now = 0, matched = 0;
  for (const auto& p : prompts) {
    matched += tree.match_into(p, path);
    tree.insert_into(p, ++now, SIZE_MAX, path);
  }
  return matched;
}

void bench_radix_stream(const bench::BenchOptions& opt,
                        bench::JsonReport& json) {
  const auto n_prompts = std::max<std::size_t>(
      64, static_cast<std::size_t>(2048.0 * opt.scale));
  util::Rng rng(opt.seed);
  const auto prefix = random_tokens(rng, 128);
  std::vector<std::vector<tokenizer::TokenId>> prompts;
  prompts.reserve(n_prompts);
  for (std::size_t i = 0; i < n_prompts; ++i) {
    auto p = prefix;
    const auto tail = random_tokens(rng, 32);
    p.insert(p.end(), tail.begin(), tail.end());
    prompts.push_back(std::move(p));
  }

  const StreamOutcome first = run_stream(prompts);
  if (const StreamOutcome again = run_stream(prompts);
      again.hit_tokens != first.hit_tokens ||
      again.inserted_blocks != first.inserted_blocks)
    fail("radix_stream outcome not deterministic across runs");
  if (run_tree_stream(prompts) != first.hit_tokens)
    fail("radix_stream cache hits differ from the bare tree's matches");

  const auto [cache_s, tree_s] =
      bench::WallClockTimer(5, 1).min_seconds_interleaved(
          [] {}, [&] { g_sink = run_stream(prompts).hit_tokens; },
          [] {}, [&] { g_sink = run_tree_stream(prompts); });
  const double us_per_request =
      cache_s / static_cast<double>(n_prompts) * 1e6;
  const double tree_us_per_request =
      tree_s / static_cast<double>(n_prompts) * 1e6;
  // The cache's bookkeeping over the tree walk it wraps: a host speed
  // change moves both timings, a slower cache cycle only this one.
  const double vs_tree = us_per_request / tree_us_per_request;

  std::printf("radix_stream: %zu shared-prefix requests, %.3f us/request "
              "(bare tree %.3f, %.2fx; hit_tokens=%llu)\n\n",
              n_prompts, us_per_request, tree_us_per_request, vs_tree,
              static_cast<unsigned long long>(first.hit_tokens));
  json.add("radix_stream",
           {{"requests", n_prompts},
            {"us_per_request", us_per_request},
            {"tree_us_per_request", tree_us_per_request},
            {"vs_tree", vs_tree},
            {"hit_tokens", static_cast<std::size_t>(first.hit_tokens)},
            {"inserted_blocks",
             static_cast<std::size_t>(first.inserted_blocks)}});
}

// ---- Section: evict_batch (single-scan batch eviction). ----

void bench_evict_batch(const bench::BenchOptions& opt,
                       bench::JsonReport& json) {
  constexpr std::size_t kBlock = 16;
  const auto n_prompts = std::max<std::size_t>(
      32, static_cast<std::size_t>(1024.0 * opt.scale));
  constexpr std::size_t kBlocksPerPrompt = 8;

  std::vector<std::vector<tokenizer::TokenId>> prompts;
  prompts.reserve(n_prompts);
  util::Rng rng(opt.seed);
  for (std::size_t i = 0; i < n_prompts; ++i)
    prompts.push_back(random_tokens(rng, kBlock * kBlocksPerPrompt));

  // One tree, filled and drained in turn: each timing's setup is the
  // other operation, so both run on the same warm arena.
  cache::RadixTree tree(kBlock);
  std::vector<cache::NodeId> path;
  std::size_t nodes = 0, evicted = 0;
  const auto build = [&] {
    std::uint64_t now = 0;
    for (const auto& p : prompts) tree.insert_into(p, ++now, SIZE_MAX, path);
    nodes = tree.num_blocks();
  };
  const auto drain = [&] {
    evicted = tree.evict_lru(tree.num_blocks());
    if (tree.num_blocks() != 0) fail("evict_batch failed to drain the tree");
  };
  const auto [build_best, drain_best] =
      bench::WallClockTimer(5, 1).min_seconds_interleaved(drain, build, build,
                                                          drain);
  const double build_us_per_block =
      build_best / static_cast<double>(nodes) * 1e6;
  const double us_per_block = drain_best / static_cast<double>(nodes) * 1e6;
  // Victim selection over the inserts that made the victims: a host speed
  // change moves both timings, a slower drain only this one.
  const double vs_build = us_per_block / build_us_per_block;

  std::printf("evict_batch: drained %zu blocks in one call, %.4f us/block "
              "(build %.4f, %.2fx)\n\n",
              nodes, us_per_block, build_us_per_block, vs_build);
  json.add("evict_batch", {{"nodes", nodes},
                           {"evicted", evicted},
                           {"us_per_block", us_per_block},
                           {"build_us_per_block", build_us_per_block},
                           {"vs_build", vs_build}});
}

// ---- Section: evict_pressure (evict cost against arena size). ----

/// A full flat cache cycling through twice as many fresh 4-block prompts
/// as it holds: every lookup misses and every admit evicts the 4 blocks
/// of the oldest prompt.
class PressureLoop {
 public:
  static constexpr std::size_t kBlock = 16;
  static constexpr std::size_t kBlocksPerPrompt = 4;

  PressureLoop(std::size_t capacity_blocks, std::uint64_t seed)
      : cache_(cache::CacheConfig{kBlock, capacity_blocks, true}) {
    util::Rng rng(seed);
    const std::size_t resident = capacity_blocks / kBlocksPerPrompt;
    for (std::size_t i = 0; i < 2 * resident; ++i)
      prompts_.push_back(random_tokens(rng, kBlock * kBlocksPerPrompt));
    cycles(resident);  // fill: from here on every admit evicts
  }

  void cycles(std::size_t n) {
    for (std::size_t i = 0; i < n; ++i) {
      const auto& p = prompts_[next_];
      next_ = (next_ + 1) % prompts_.size();
      auto lease = cache_.lookup(p);
      cache_.admit(p, lease);
      cache_.release(lease);
    }
  }

  std::uint64_t evicted() const { return cache_.stats().evicted_blocks; }

 private:
  cache::PrefixCache cache_;
  std::vector<std::vector<tokenizer::TokenId>> prompts_;
  std::size_t next_ = 0;
};

void bench_evict_pressure(const bench::BenchOptions& opt,
                          bench::JsonReport& json) {
  constexpr std::size_t kSmall = 256, kLarge = 4096;
  const auto n_cycles = std::max<std::size_t>(
      256, static_cast<std::size_t>(4096.0 * opt.scale));
  PressureLoop small(kSmall, opt.seed);
  PressureLoop large(kLarge, opt.seed + 1);
  // The exact count: n_cycles untimed cycles on each, 4 blocks apiece.
  const std::uint64_t before = small.evicted() + large.evicted();
  small.cycles(n_cycles);
  large.cycles(n_cycles);
  const auto evicted =
      static_cast<std::size_t>(small.evicted() + large.evicted() - before);
  if (evicted != 2 * n_cycles * PressureLoop::kBlocksPerPrompt)
    fail("evict_pressure: an admit did not evict one prompt's blocks");

  const auto [small_s, large_s] =
      bench::WallClockTimer(5, 1).min_seconds_interleaved(
          [] {}, [&] { small.cycles(n_cycles); },
          [] {}, [&] { large.cycles(n_cycles); });
  const double small_us = small_s / static_cast<double>(n_cycles) * 1e6;
  const double large_us = large_s / static_cast<double>(n_cycles) * 1e6;
  // The same cycle on a 16x larger arena: an evict call whose cost grew
  // with the arena (a scan per call) moves this; a host speed change
  // moves both timings.
  const double vs_small = large_us / small_us;

  std::printf("evict_pressure: %zu full-cache cycles evicting %zu blocks "
              "each, %.3f us/cycle at %zu blocks, %.3f at %zu (%.2fx)\n\n",
              n_cycles, PressureLoop::kBlocksPerPrompt, small_us, kSmall,
              large_us, kLarge, vs_small);
  json.add("evict_pressure", {{"cycles", n_cycles},
                              {"small_blocks", kSmall},
                              {"large_blocks", kLarge},
                              {"evicted", evicted},
                              {"small_us_per_cycle", small_us},
                              {"large_us_per_cycle", large_us},
                              {"vs_small", vs_small}});
}

// ---- Section: tokenize (prompt encoding of every dataset's rows). ----

void bench_tokenize(const bench::BenchOptions& opt, bench::JsonReport& json) {
  // The timed loop is the work an encoded view does once per distinct
  // value: render each row's JSON and tokenize it. The exact keys (tokens,
  // fingerprint) come from PromptEncoder::encode, the segment path.
  std::printf(
      "tokenize: render_row_json + encode_append per row (timed); tokens "
      "and fingerprint from PromptEncoder::encode\n");
  std::printf("  %-9s %6s %9s %11s %10s %12s\n", "dataset", "rows", "tokens",
              "ns/token", "us/row", "fingerprint");

  const bench::WallClockTimer timer(5, 1);
  for (const std::string& key : data::dataset_keys()) {
    // The dataset's first suite query (its filter or RAG query) supplies
    // the instruction prefix and the fields the LLM reads.
    const auto& queries = data::benchmark_queries();
    const auto& spec = *std::find_if(
        queries.begin(), queries.end(),
        [&](const data::QuerySpec& q) { return q.dataset == key; });
    const data::Dataset d = bench::load(key, opt);
    const table::Table t = spec.stage1.fields.empty()
                               ? d.table
                               : d.table.project(spec.stage1.fields);
    const query::PromptEncoder encoder(
        query::PromptTemplate{spec.system_prompt, spec.stage1.user_prompt});
    std::vector<std::size_t> fields(t.num_cols());
    for (std::size_t f = 0; f < fields.size(); ++f) fields[f] = f;

    // FNV-1a over every id of every prompt, low byte first: pins the
    // vocabulary and the JSON rendering together.
    std::uint64_t fp = util::kFnvOffsetBasis;
    std::size_t tokens = 0;
    for (std::size_t r = 0; r < t.num_rows(); ++r) {
      const tokenizer::TokenSeq prompt = encoder.encode(t, r, fields);
      tokens += prompt.size();
      for (const tokenizer::TokenId id : prompt)
        for (int b = 0; b < 4; ++b)
          fp = util::fnv1a_step(fp, static_cast<unsigned char>(id >> (8 * b)));
    }

    const auto& tok = tokenizer::global_tokenizer();
    std::size_t row_tokens = 0;
    tokenizer::TokenSeq scratch;
    const double s = timer.min_seconds([&] {
      row_tokens = 0;
      for (std::size_t r = 0; r < t.num_rows(); ++r) {
        scratch.clear();
        tok.encode_append(query::render_row_json(t, r, fields), scratch);
        row_tokens += scratch.size();
      }
      g_sink = row_tokens;
    });
    const double ns_per_token = s / static_cast<double>(row_tokens) * 1e9;
    const double us_per_row = s / static_cast<double>(t.num_rows()) * 1e6;
    // Folded to 32 bits so it survives the double-typed JSON number path.
    const auto fingerprint = static_cast<std::size_t>(fp & 0xFFFFFFFFu);

    std::printf("  %-9s %6zu %9zu %11.2f %10.3f %12zu\n", key.c_str(),
                t.num_rows(), tokens, ns_per_token, us_per_row, fingerprint);
    json.add("tokenize", {{"dataset", key},
                          {"rows", t.num_rows()},
                          {"tokens", tokens},
                          {"ns_per_token", ns_per_token},
                          {"us_per_row", us_per_row},
                          {"fingerprint", fingerprint}});
  }
  std::printf("\n");
}

// ---- Section: alloc_steadystate (the arena zero-allocation audit). ----

void bench_alloc_steadystate(const bench::BenchOptions& opt,
                             bench::JsonReport& json) {
  constexpr std::size_t kBlock = 16;
  constexpr std::size_t kPrompts = 32;
  constexpr std::size_t kBlocksPerPrompt = 4;
  constexpr std::size_t kCapacityBlocks = 64;  // < working set: churn forever

  util::Rng rng(opt.seed);
  std::vector<std::vector<tokenizer::TokenId>> prompts;
  prompts.reserve(kPrompts);
  for (std::size_t i = 0; i < kPrompts; ++i)
    prompts.push_back(random_tokens(rng, kBlock * kBlocksPerPrompt));

  // Cache-level churn: capacity-limited, every pass evicts (or demotes)
  // and re-inserts. Returns {warm-up, steady-state} allocation counts.
  constexpr int kSteadyPasses = 3;
  const auto churn = [&](const cache::CacheConfig& config) {
    cache::PrefixCache pc(config);
    const auto pass = [&] {
      for (const auto& p : prompts) {
        auto lease = pc.lookup(p);
        pc.admit(p, lease);
        pc.release(lease);
      }
    };
    // Two warm-up passes: pools, slabs, scratch all reach high water.
    const std::uint64_t before_warm = g_allocs.load(std::memory_order_relaxed);
    for (int i = 0; i < 2; ++i) pass();
    const std::uint64_t before_steady =
        g_allocs.load(std::memory_order_relaxed);
    const cache::CacheStats warm = pc.stats();
    for (int i = 0; i < kSteadyPasses; ++i) pass();
    const std::uint64_t after = g_allocs.load(std::memory_order_relaxed);
    // The audit only means something if the steady passes really churn:
    // the bottom tier must destroy blocks, and a tiered GPU must demote.
    const cache::CacheStats steady = pc.stats() - warm;
    if (steady.evicted_blocks == 0 ||
        (config.tiers > 1 && steady.demoted_blocks == 0))
      fail("alloc_steadystate churn did not evict, or a tier did not demote");
    return std::pair<std::size_t, std::size_t>(before_steady - before_warm,
                                               after - before_steady);
  };
  // Host and disk tiers are bounded too, so tiered churn cascades down to
  // bottom-tier eviction.
  const auto config = [&](std::size_t tiers) {
    return cache::CacheConfig{.block_size = kBlock,
                              .capacity_blocks = kCapacityBlocks,
                              .tiers = tiers,
                              .host_capacity_blocks = kCapacityBlocks / 2,
                              .disk_capacity_blocks = kCapacityBlocks / 4};
  };
  const auto [warmup_allocs, steady_allocs] = churn(config(1));
  const std::size_t tiers2_allocs = churn(config(2)).second;
  const std::size_t tiers3_allocs = churn(config(3)).second;
  if (steady_allocs != 0) fail("steady-state cache churn allocated");
  if (tiers2_allocs != 0) fail("steady-state 2-tier cache churn allocated");
  if (tiers3_allocs != 0) fail("steady-state 3-tier cache churn allocated");

  // Tree-level churn: node slots must stay flat once warm (satellite:
  // recycled slots reuse their storage instead of re-growing it).
  cache::RadixTree tree(kBlock);
  std::uint64_t now = 0;
  const auto tree_pass = [&] {
    for (const auto& p : prompts) tree.insert(p, ++now);
    tree.evict_lru(tree.num_blocks());
  };
  tree_pass();
  tree_pass();
  const std::size_t slots_warm = tree.node_slots();
  for (int i = 0; i < kSteadyPasses; ++i) tree_pass();
  const std::size_t slots_delta = tree.node_slots() - slots_warm;
  if (slots_delta != 0) fail("steady-state tree churn carved new node slots");

  std::printf("alloc_steadystate: warmup_allocs=%zu steady_allocs=%zu "
              "node_slots_delta=%zu (over %d churn passes); steady allocs "
              "2-tier=%zu 3-tier=%zu\n\n",
              warmup_allocs, steady_allocs, slots_delta, kSteadyPasses,
              tiers2_allocs, tiers3_allocs);
  json.add("alloc_steadystate",
           {{"steady_passes", static_cast<std::size_t>(kSteadyPasses)},
            {"warmup_allocs", warmup_allocs},
            {"steady_allocs", steady_allocs},
            {"node_slots_delta", slots_delta},
            {"steady_allocs_tiers2", tiers2_allocs},
            {"steady_allocs_tiers3", tiers3_allocs}});
}

}  // namespace

int main(int argc, char** argv) {
  const bench::BenchOptions opt =
      bench::parse_options(argc, argv, bench::kJson);
  bench::print_header("hot-path microbenchmarks", opt);
  bench::JsonReport json("bench_micro", opt);

  bench_token_ops(opt, json);
  bench_radix_fanout(opt, json);
  bench_radix_stream(opt, json);
  bench_evict_batch(opt, json);
  bench_evict_pressure(opt, json);
  bench_tokenize(opt, json);
  bench_alloc_steadystate(opt, json);

  json.write();
  return 0;
}
