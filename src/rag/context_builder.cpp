#include "rag/context_builder.hpp"

namespace llmq::rag {

table::Table build_rag_table(const VectorIndex& index,
                             const std::vector<std::string>& questions,
                             const RagTableOptions& options) {
  std::vector<std::string> names{options.question_field};
  for (std::size_t i = 1; i <= options.k; ++i)
    names.push_back(options.context_prefix + std::to_string(i));

  table::Table t(table::Schema::of_names(names));
  for (const auto& q : questions) {
    const auto hits = index.search(q, options.k);
    std::vector<std::string> row;
    row.reserve(options.k + 1);
    row.push_back(q);
    for (std::size_t i = 0; i < options.k; ++i) {
      if (i < hits.size())
        row.push_back(index.document(hits[i].id));
      else
        row.emplace_back();  // fewer than k documents indexed
    }
    t.append_row(std::move(row));
  }
  return t;
}

}  // namespace llmq::rag
