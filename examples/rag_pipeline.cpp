// RAG pipeline example (paper §6.2 "RAG"):
//
//   SELECT LLM('Given a question and four supporting contexts, answer the
//               provided question.', VectorDB.search(question, k=4),
//              question)
//   FROM FEVER
//
// Build a small evidence corpus, index it, retrieve per-claim contexts,
// and show how GGR rearranges questions *and* context fields so claims
// sharing evidence run back-to-back with the shared contexts fronted.
//
// Build & run:  ./build/example_rag_pipeline

#include <cstdio>

#include "core/baselines.hpp"
#include "core/ggr.hpp"
#include "core/phc.hpp"
#include "rag/context_builder.hpp"
#include "util/wordbank.hpp"
#include "cli.hpp"

using namespace llmq;

int main(int argc, char** argv) {
  examples::Cli(argc, argv, "").max_args(0);
  util::Rng rng(99);
  const auto& bank = util::default_wordbank();

  // -- corpus: 4 topics x 4 evidence passages ---------------------------
  rag::VectorIndex index{rag::Embedder(128)};
  std::vector<std::string> topics;
  for (int t = 0; t < 4; ++t) {
    topics.push_back(bank.title(rng, 3));
    for (int p = 0; p < 4; ++p)
      index.add(topics.back() + ". " + bank.text_of_tokens(rng, 120));
  }
  std::printf("indexed %zu evidence passages across %zu topics\n",
              index.size(), topics.size());

  // -- claims: several per topic, interleaved ---------------------------
  std::vector<std::string> claims;
  for (int round = 0; round < 5; ++round)
    for (const auto& topic : topics)
      claims.push_back(topic + " is associated with " + bank.title(rng, 2) +
                       ".");

  // -- retrieval: top-4 contexts per claim ------------------------------
  rag::RagTableOptions ro;
  ro.k = 4;
  ro.question_field = "claim";
  ro.context_prefix = "evidence";
  const auto rag_table = rag::build_rag_table(index, claims, ro);
  std::printf("RAG table: %zu rows x %zu fields (claim + 4 contexts)\n\n",
              rag_table.num_rows(), rag_table.num_cols());

  // -- plan: GGR vs the original claim-first layout ---------------------
  core::GgrOptions opts;
  const auto plan = core::ggr(rag_table, table::FdSet{}, opts);
  const auto original = core::original_ordering(rag_table);

  const auto b_orig = core::phc_breakdown(rag_table, original);
  const auto b_ggr = core::phc_breakdown(rag_table, plan.ordering);
  std::printf("adjacent-row sharing (squared-token hit fraction):\n");
  std::printf("  original : %5.1f%%   (claim field first blocks everything)\n",
              100.0 * b_orig.hit_fraction());
  std::printf("  GGR      : %5.1f%%   (shared evidence fronted, claim last)\n",
              100.0 * b_ggr.hit_fraction());

  // Show one reordered row: evidence fields come first, claim last.
  const auto& fo = plan.ordering.fields_at(0);
  std::printf("\nfirst scheduled row's field order: ");
  for (std::size_t f : fo)
    std::printf("%s ", rag_table.schema().field(f).name.c_str());
  std::printf("\n\nThe paper's §6.4 observation follows directly: GGR tends "
              "to move the\nclaim to the end of the prompt, which (for "
              "Llama3-8B on FEVER) also\nimproved answer accuracy by 14.2%%.\n");
  return 0;
}
