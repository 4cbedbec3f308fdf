// Quickstart: the llmq pipeline on a small inline table.
//
//  1. Build a relational table (reviews joined with product metadata).
//  2. Declare functional dependencies.
//  3. Plan a request ordering with GGR and compare its prefix hit count
//     against the original ordering.
//  4. Serve both schedules through the simulated LLM engine and compare
//     job completion times.
//
// Build & run:  ./build/example_quickstart

#include <cstdio>

#include "core/baselines.hpp"
#include "core/ggr.hpp"
#include "core/phc.hpp"
#include "llm/engine.hpp"
#include "query/llm_operator.hpp"
#include "query/prompt.hpp"
#include "table/table.hpp"
#include "cli.hpp"

using namespace llmq;

int main(int argc, char** argv) {
  examples::Cli(argc, argv, "").max_args(0);
  // -- 1. A table of product reviews, metadata repeated per product. ----
  table::Table t(table::Schema::of_names(
      {"review", "rating", "product", "description"}));
  const char* products[][2] = {
      {"Nebula X1 Headphones",
       "Wireless over-ear headphones with active noise cancelling and a "
       "thirty hour battery life, tuned for studio-flat response"},
      {"Aurora Desk Lamp",
       "Adjustable LED desk lamp with three color temperatures, a USB "
       "charging port and a five year warranty"}};
  const char* reviews[] = {
      "Crisp highs and deep bass, easily the best value in this range",
      "Battery life is as advertised, comfort is superb on long flights",
      "The hinge feels flimsy and mine developed a rattle within a week",
      "Bright, flicker free and the color modes genuinely help at night",
      "Arrived with a dead LED strip, replacement took three weeks",
      "Perfect reading companion, the warm mode is easy on the eyes"};
  const int product_of[] = {0, 0, 0, 1, 1, 1};
  const char* rating_of[] = {"5", "5", "2", "5", "1", "4"};
  // Interleave products so the original ordering has no adjacent sharing.
  for (int i : {0, 3, 1, 4, 2, 5})
    t.append_row({reviews[i], rating_of[i], products[product_of[i]][0],
                  products[product_of[i]][1]});

  // -- 2. FDs: the product name determines its description. -------------
  table::FdSet fds;
  fds.add_group({"product", "description"});

  // -- 3. Plan with GGR; compare PHC against the original ordering. -----
  core::GgrOptions opts;  // paper defaults: depth (4, 2), token lengths
  const auto plan = core::ggr(t, fds, opts);
  const auto original = core::original_ordering(t);
  std::printf("PHC original : %.0f\n", core::phc(t, original));
  std::printf("PHC GGR      : %.0f  (solver %.3f ms)\n", plan.phc,
              plan.solve_seconds * 1e3);

  std::printf("\nGGR schedule (row -> field order):\n");
  for (std::size_t pos = 0; pos < plan.ordering.num_rows(); ++pos) {
    std::printf("  row %zu: ", plan.ordering.row_at(pos));
    for (std::size_t f : plan.ordering.fields_at(pos))
      std::printf("%s ", t.schema().field(f).name.c_str());
    std::printf("\n");
  }

  // -- 4. Serve both schedules and compare simulated job time. ----------
  query::LlmOperatorSpec op;
  op.tmpl.system_prompt =
      "You are a data analyst. Use the provided JSON data to answer the "
      "user query based on the specified fields.";
  op.tmpl.user_prompt =
      "Does the review match the product description? Answer Yes or No.";
  op.avg_output_tokens = 2;
  const llm::TaskModel task_model(llm::profile_llama3_8b());

  llm::EngineConfig ec;
  ec.cache_enabled = true;
  llm::ServingEngine engine(llm::CostModel(llm::llama3_8b(), llm::l4()), ec);

  for (const auto& [name, ordering] :
       {std::pair<const char*, const core::Ordering&>{"original", original},
        {"GGR", plan.ordering}}) {
    const auto reqs = query::build_requests(t, ordering, op, task_model, {});
    const auto run = engine.run(reqs.requests);
    std::printf("\n%-8s: %.2f simulated s, prompt cache hit rate %.0f%%\n",
                name, run.metrics.total_seconds,
                100.0 * run.metrics.prompt_cache_hit_rate());
  }
  return 0;
}
