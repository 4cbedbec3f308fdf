// The paper's introduction example:
//
//   SELECT user_id, request, support_response,
//          LLM('Did {support_response} address {request}?',
//              support_response, request) AS success
//   FROM customer_tickets WHERE support_response <> NULL
//
// We generate a synthetic customer_tickets table where canned support
// macros repeat across tickets (the realistic sharing structure), run the
// LLM filter under the three method arms, and show the per-arm cost.
//
// Build & run:  ./build/example_customer_tickets [n_tickets]

#include <cstdio>

#include "core/schedule.hpp"
#include "llm/engine.hpp"
#include "query/llm_operator.hpp"
#include "table/stats.hpp"
#include "util/wordbank.hpp"
#include "cli.hpp"

using namespace llmq;

namespace {

table::Table make_tickets(std::size_t n, std::uint64_t seed) {
  util::Rng rng(seed);
  const auto& bank = util::default_wordbank();

  // Support teams answer from a macro library: responses repeat heavily.
  std::vector<std::string> macros;
  for (int i = 0; i < 12; ++i)
    macros.push_back(bank.text_of_tokens(rng, 90));

  table::Table t(table::Schema::of_names(
      {"user_id", "request", "support_response"}));
  for (std::size_t i = 0; i < n; ++i) {
    t.append_row({"u" + std::to_string(100000 + rng.next_below(50000)),
                  bank.text_of_tokens(rng, 45),
                  macros[rng.next_below(macros.size())]});
  }
  return t;
}

}  // namespace

int main(int argc, char** argv) {
  const examples::Cli cli(argc, argv, "[n_tickets]");
  cli.max_args(1);
  const std::size_t n = argc > 1 ? cli.count("n_tickets", argv[1]) : 1500;
  const auto tickets = make_tickets(n, 2024);

  // The planner discovers there are no useful FDs here; run it anyway to
  // show the full pipeline (mine_fds is cheap at this width).
  const auto fds = table::mine_fds(tickets, 0.01);

  query::LlmOperatorSpec op;
  op.tmpl.system_prompt =
      "You are a data analyst. Use the provided JSON data to answer the "
      "user query based on the specified fields.";
  op.tmpl.user_prompt =
      "Did the support_response address the request? Answer ONLY 'Yes' or "
      "'No'.";
  op.avg_output_tokens = 2;
  const llm::TaskModel task_model(llm::profile_llama3_8b());

  std::printf("customer_tickets: %zu rows, %zu support macros in rotation\n\n",
              tickets.num_rows(), std::size_t{12});
  std::printf("%-22s %12s %14s %12s\n", "method", "job time (s)",
              "prompt PHR", "prefill (s)");

  struct Arm {
    const char* label;
    core::Policy policy;
    bool cache_on;
  };
  const Arm arms[] = {{"No Cache", core::Policy::Original, false},
                      {"Cache (Original)", core::Policy::Original, true},
                      {"Cache (GGR)", core::Policy::Ggr, true}};
  for (const auto& [label, policy, cache_on] : arms) {
    core::PlanRequest preq;
    preq.policy = policy;
    const auto plan = core::plan_ordering(tickets, fds, preq);
    const auto reqs =
        query::build_requests(tickets, plan.ordering, op, task_model, {});

    llm::EngineConfig ec;
    ec.cache_enabled = cache_on;
    // Keep the cache oversubscribed relative to the job, as production
    // tables are (see DESIGN.md): pool sized to ~5% of the job's tokens.
    std::uint64_t total_tokens = 0;
    for (const auto& r : reqs.requests) total_tokens += r.prompt.size();
    ec.kv_pool_blocks_override =
        std::max<std::size_t>(256, total_tokens / 20 / ec.block_size);
    llm::ServingEngine engine(llm::CostModel(llm::llama3_8b(), llm::l4()), ec);
    const auto run = engine.run(reqs.requests);
    std::printf("%-22s %12.1f %13.1f%% %12.1f\n", label,
                run.metrics.total_seconds,
                100.0 * run.metrics.prompt_cache_hit_rate(),
                run.metrics.prefill_seconds);
  }

  std::printf("\nThe repeated support macros are exactly the sharing the\n"
              "paper exploits: GGR groups tickets answered by the same macro\n"
              "and fronts the response field, so the long macro text is\n"
              "prefilled once per group instead of once per ticket.\n");
  return 0;
}
