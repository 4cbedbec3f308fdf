// FEVER (Thorne et al. 2018) as a RAG workload (paper §6.1.2 T5): claims
// verified against top-4 retrieved evidence passages. Ground-truth labels
// {SUPPORTS, REFUTES, NOT ENOUGH INFO} exist for every row (the paper uses
// them directly for the accuracy study, where FEVER is the dataset with
// the strong field-position effect on Llama3-8B).

#include "data/gen_common.hpp"
#include "rag/context_builder.hpp"
#include "rag/vector_index.hpp"

namespace llmq::data {

using detail::dataset_rng;
using detail::rows_or_default;

Dataset generate_fever(const GenOptions& opt) {
  const std::size_t n = rows_or_default(opt, "fever");
  util::Rng rng = dataset_rng(opt, "fever");
  const auto& bank = util::default_wordbank();

  const std::size_t n_topics = std::max<std::size_t>(1, n / 50);
  const std::size_t passages_per_topic = 5;

  rag::VectorIndex index{rag::Embedder(128)};
  std::vector<std::string> topics(n_topics);
  for (std::size_t t = 0; t < n_topics; ++t) {
    topics[t] = bank.title(rng, 3);
    for (std::size_t p = 0; p < passages_per_topic; ++p) {
      // Passage p repeats the topic phrase (k+1-p) times so within-topic
      // retrieval order is stable across claim wordings (see squad.cpp).
      std::string evidence;
      for (std::size_t rep = 0; rep + p < passages_per_topic + 1; ++rep)
        evidence += topics[t] + ". ";
      evidence += bank.text_of_tokens(rng, 280);
      index.add(std::move(evidence));
    }
  }

  std::vector<std::string> claims;
  std::vector<std::string> labels;
  claims.reserve(n);
  const std::vector<std::string> choices{"SUPPORTS", "REFUTES",
                                         "NOT ENOUGH INFO"};
  util::Zipf popularity(n_topics, 0.5);
  for (std::size_t i = 0; i < n; ++i) {
    const std::size_t t = popularity.sample(rng);
    std::string claim =
        topics[t] + " is associated with " + bank.title(rng, 2) + ".";
    labels.push_back(detail::pick_label(claim, 0xFE4E8, choices, {5, 3, 2}));
    claims.push_back(std::move(claim));
  }

  rag::RagTableOptions ro;
  ro.k = 4;
  ro.question_field = "claim";
  ro.context_prefix = "evidence";

  Dataset d;
  d.name = "FEVER";
  d.table = rag::build_rag_table(index, claims, ro);
  d.truth = std::move(labels);
  d.label_choices = choices;
  d.key_field = "claim";
  return d;
}

}  // namespace llmq::data
