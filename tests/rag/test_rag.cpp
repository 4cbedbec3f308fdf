#include <gtest/gtest.h>

#include <set>

#include "rag/context_builder.hpp"
#include "rag/embedding.hpp"
#include "rag/vector_index.hpp"

namespace llmq::rag {
namespace {

TEST(Embedding, DeterministicAndNormalized) {
  Embedder e(128);
  const auto a = e.embed("the quick brown fox");
  const auto b = e.embed("the quick brown fox");
  EXPECT_EQ(a, b);
  double norm = 0.0;
  for (float x : a) norm += static_cast<double>(x) * x;
  EXPECT_NEAR(norm, 1.0, 1e-5);
}

TEST(Embedding, EmptyTextIsZeroVector) {
  Embedder e(64);
  const auto v = e.embed("");
  for (float x : v) EXPECT_EQ(x, 0.0f);
}

TEST(Embedding, SimilarTextsCloserThanDissimilar) {
  Embedder e(256);
  const auto a = e.embed("machine learning systems research paper");
  const auto b = e.embed("machine learning systems conference paper");
  const auto c = e.embed("baking sourdough bread at home slowly");
  EXPECT_GT(cosine_similarity(a, b), cosine_similarity(a, c));
}

TEST(Embedding, CosineEdgeCases) {
  EXPECT_EQ(cosine_similarity({}, {}), 0.0f);
  EXPECT_EQ(cosine_similarity({0.0f, 0.0f}, {1.0f, 0.0f}), 0.0f);
  EXPECT_NEAR(cosine_similarity({1.0f, 0.0f}, {1.0f, 0.0f}), 1.0f, 1e-6);
  EXPECT_NEAR(cosine_similarity({1.0f, 0.0f}, {-1.0f, 0.0f}), -1.0f, 1e-6);
}

TEST(VectorIndex, ExactSelfRetrieval) {
  VectorIndex idx{Embedder(128)};
  const auto id0 = idx.add("alpha beta gamma delta");
  idx.add("completely different words here");
  const auto hits = idx.search("alpha beta gamma delta", 1);
  ASSERT_EQ(hits.size(), 1u);
  EXPECT_EQ(hits[0].id, id0);
  EXPECT_NEAR(hits[0].score, 1.0f, 1e-5);
}

TEST(VectorIndex, TopKOrderedAndClamped) {
  VectorIndex idx{Embedder(128)};
  idx.add("cats and dogs");
  idx.add("cats and birds");
  idx.add("quantum chromodynamics lattice");
  const auto hits = idx.search("cats and dogs", 10);
  ASSERT_EQ(hits.size(), 3u);  // clamped to index size
  EXPECT_GE(hits[0].score, hits[1].score);
  EXPECT_GE(hits[1].score, hits[2].score);
  EXPECT_EQ(hits[0].id, 0u);
}

TEST(VectorIndex, DeterministicTieBreakById) {
  VectorIndex idx{Embedder(128)};
  idx.add("identical passage");
  idx.add("identical passage");
  const auto hits = idx.search("identical passage", 2);
  ASSERT_EQ(hits.size(), 2u);
  EXPECT_EQ(hits[0].id, 0u);
  EXPECT_EQ(hits[1].id, 1u);
}

TEST(ContextBuilder, TableShapeAndContent) {
  VectorIndex idx{Embedder(128)};
  idx.add("topic one fact alpha");
  idx.add("topic one fact beta");
  idx.add("topic two fact gamma");
  RagTableOptions opt;
  opt.k = 2;
  opt.question_field = "claim";
  opt.context_prefix = "evidence";
  const auto t = build_rag_table(idx, {"about topic one", "about topic two"}, opt);
  EXPECT_EQ(t.num_rows(), 2u);
  EXPECT_EQ(t.num_cols(), 3u);
  EXPECT_EQ(t.schema().field(0).name, "claim");
  EXPECT_EQ(t.schema().field(1).name, "evidence1");
  EXPECT_EQ(t.cell(0, 0), "about topic one");
  // Retrieved contexts must come from the corpus verbatim.
  for (std::size_t r = 0; r < 2; ++r)
    for (std::size_t c = 1; c <= 2; ++c) {
      bool found = false;
      for (std::size_t d = 0; d < idx.size(); ++d)
        if (idx.document(d) == t.cell(r, c)) found = true;
      EXPECT_TRUE(found);
    }
}

TEST(ContextBuilder, SharedContextsAcrossQuestions) {
  // Questions about the same topic should retrieve identical context sets
  // — the repetition the RAG experiment relies on.
  VectorIndex idx{Embedder(128)};
  idx.add("solar power grid integration study results");
  idx.add("solar power grid stability analysis report");
  idx.add("medieval pottery excavation field notes");
  idx.add("medieval pottery kiln reconstruction");
  RagTableOptions opt;
  opt.k = 2;
  const auto t = build_rag_table(
      idx,
      {"what about solar power grid?", "more on solar power grid",
       "tell me about medieval pottery"},
      opt);
  // Same topic -> same context *set* (retrieval order may differ with the
  // query's own wording; the planner's field reordering handles that).
  const std::set<std::string> q0{t.cell(0, 1), t.cell(0, 2)};
  const std::set<std::string> q1{t.cell(1, 1), t.cell(1, 2)};
  const std::set<std::string> q2{t.cell(2, 1), t.cell(2, 2)};
  EXPECT_EQ(q0, q1);
  EXPECT_NE(q0, q2);
}

TEST(ContextBuilder, FewerDocsThanKPadsEmpty) {
  VectorIndex idx{Embedder(64)};
  idx.add("only document");
  RagTableOptions opt;
  opt.k = 3;
  const auto t = build_rag_table(idx, {"q"}, opt);
  EXPECT_EQ(t.cell(0, 1), "only document");
  EXPECT_EQ(t.cell(0, 2), "");
  EXPECT_EQ(t.cell(0, 3), "");
}

}  // namespace
}  // namespace llmq::rag
