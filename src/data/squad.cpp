// SQuAD (Rajpurkar et al. 2016) as a RAG workload (paper §6.1.2 T5):
// questions over Wikipedia articles; the top-5 retrieved passages become
// context1..context5. Questions about the same article retrieve the same
// passages — the cross-row sharing GGR exploits. Original field order puts
// the (unique) question first.

#include "data/gen_common.hpp"
#include "rag/context_builder.hpp"
#include "rag/vector_index.hpp"

namespace llmq::data {

using detail::dataset_rng;
using detail::rows_or_default;

Dataset generate_squad(const GenOptions& opt) {
  const std::size_t n = rows_or_default(opt, "squad");
  util::Rng rng = dataset_rng(opt, "squad");
  const auto& bank = util::default_wordbank();

  const std::size_t n_articles = std::max<std::size_t>(1, n / 40);
  const std::size_t passages_per_article = 6;

  rag::VectorIndex index{rag::Embedder(128)};
  std::vector<std::string> article_topic(n_articles);
  for (std::size_t a = 0; a < n_articles; ++a) {
    // A distinctive topic phrase anchors both passages and questions so
    // retrieval clusters by article.
    article_topic[a] = bank.title(rng, 3);
    for (std::size_t p = 0; p < passages_per_article; ++p) {
      // Passage p repeats the topic phrase (k+1-p) times: retrieval order
      // within a topic is then stable across question wordings, so
      // questions about one article see identical (context1..context5)
      // tuples — the alignment the paper's 70% RAG hit rate implies.
      std::string passage;
      for (std::size_t rep = 0; rep + p < passages_per_article + 1; ++rep)
        passage += article_topic[a] + ". ";
      passage += bank.text_of_tokens(rng, 165);
      index.add(std::move(passage));
    }
  }

  std::vector<std::string> questions;
  std::vector<std::string> answers;
  questions.reserve(n);
  util::Zipf popularity(n_articles, 0.5);
  for (std::size_t i = 0; i < n; ++i) {
    const std::size_t a = popularity.sample(rng);
    questions.push_back("What does " + article_topic[a] + " say about " +
                        bank.title(rng, 2) + "?");
    answers.push_back(article_topic[a]);
  }

  rag::RagTableOptions ro;
  ro.k = 5;
  ro.question_field = "question";
  ro.context_prefix = "context";

  Dataset d;
  d.name = "SQuAD";
  d.table = rag::build_rag_table(index, questions, ro);
  d.truth = std::move(answers);
  d.label_choices = {};  // open-ended QA (excluded from Fig 6, like paper)
  d.key_field = "question";
  return d;
}

}  // namespace llmq::data
