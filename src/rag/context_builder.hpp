#pragma once
// RAG table construction (paper §6.2 "RAG").
//
// The paper embeds all supporting contexts into a vector index, retrieves
// the top-k contexts per question, and forms a table of
// (question, context1..contextk) that the reordering planner then
// optimizes — multiple questions often retrieve the *same* contexts, which
// is the sharing GGR exploits. This module reproduces that pipeline.

#include <string>
#include <vector>

#include "rag/vector_index.hpp"
#include "table/table.hpp"

namespace llmq::rag {

struct RagTableOptions {
  std::size_t k = 4;                       // contexts per question
  std::string question_field = "claim";    // name for the question column
  std::string context_prefix = "evidence"; // context columns: prefix1..k
};

/// Retrieve top-k contexts for every question and assemble the LLM input
/// table. Row order matches `questions`; field order puts the question
/// first (the dataset's "original" layout).
table::Table build_rag_table(const VectorIndex& index,
                             const std::vector<std::string>& questions,
                             const RagTableOptions& options);

}  // namespace llmq::rag
