#pragma once
// Internal helpers shared by the dataset generators (not installed API).

#include <string>
#include <vector>

#include "data/generators.hpp"
#include "util/rng.hpp"
#include "util/wordbank.hpp"
#include "util/zipf.hpp"

namespace llmq::data::detail {

inline std::size_t rows_or_default(const GenOptions& opt,
                                   const std::string& key) {
  return opt.n_rows ? opt.n_rows : paper_rows(key);
}

inline util::Rng dataset_rng(const GenOptions& opt, const std::string& key) {
  return util::Rng(util::hash_combine(
      util::hash64(opt.seed), util::hash64(key.data(), key.size())));
}

/// Deterministic label from content: hashes `content` with `salt` and
/// picks choices[h % weights_total] area according to integer weights.
/// Example: pick({"Yes","No"}, {1,2}) labels ~1/3 Yes.
inline std::string pick_label(std::string_view content, std::uint64_t salt,
                              const std::vector<std::string>& choices,
                              const std::vector<std::size_t>& weights) {
  std::size_t total = 0;
  for (auto w : weights) total += w;
  const std::uint64_t h = util::hash_combine(
      util::hash64(content.data(), content.size()), salt);
  std::uint64_t slot = h % total;
  for (std::size_t i = 0; i < choices.size(); ++i) {
    if (slot < weights[i]) return choices[i];
    slot -= weights[i];
  }
  return choices.back();
}

}  // namespace llmq::data::detail
