#pragma once
// Deterministic task model — the simulated "LLM answer" channel.
//
// The paper's accuracy study (Fig 6) asks whether GGR's per-row field
// reordering changes what the model answers. We replace the real model
// with a noisy channel whose parameters encode the paper's finding:
// answer correctness depends on the model's base task accuracy and (for
// weaker models) on *where* the answer-bearing field sits in the prompt.
// Everything is a pure function of (row key, model seed, position), so a
// run is exactly reproducible and the original-vs-GGR comparison is
// paired: the same row flips only if its latent difficulty lands between
// the two orderings' success probabilities — mirroring how a real model's
// flips concentrate on borderline rows.
//
// The same component generates output token lengths for the serving
// simulator (mean/dispersion from the paper's Table 1).

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

namespace llmq::llm {

struct ModelProfile {
  std::string name;
  /// Base probability of answering a benchmark task correctly.
  double base_accuracy = 0.85;
  /// How strongly field position shifts accuracy (0 = fully robust).
  /// Positive values mean the model prefers the key field *late* in the
  /// prompt (the Llama3-8B/FEVER behaviour in paper §6.4).
  double position_susceptibility = 0.0;
  std::uint64_t seed = 0;
};

/// Profiles tuned to reproduce Fig 6's shape (see bench_paper's fig6).
ModelProfile profile_llama3_8b();
ModelProfile profile_llama3_70b();
ModelProfile profile_gpt4o();

class TaskModel {
 public:
  explicit TaskModel(ModelProfile profile) : profile_(std::move(profile)) {}

  const ModelProfile& profile() const { return profile_; }

  /// Probability of a correct answer when the answer-bearing field sits at
  /// `key_field_frac` in [0,1] (0 = first field, 1 = last) and the task
  /// itself shifts accuracy by `task_sensitivity` per unit of position.
  double success_probability(double key_field_frac,
                             double task_sensitivity) const;

  /// Deterministic answer: returns `truth` when the latent difficulty of
  /// this row (hashed from `row_key` and the model seed) falls below the
  /// success probability; otherwise a deterministic wrong choice drawn
  /// from `alternatives` (or a corrupted string if none apply).
  std::string answer(std::string_view row_key, std::string_view truth,
                     const std::vector<std::string>& alternatives,
                     double key_field_frac, double task_sensitivity) const;

  /// Output length in tokens for a row: mean with deterministic spread
  /// (~±25%), floor 1.
  std::size_t output_tokens(std::string_view row_key, double mean) const;

  /// Deterministic free-form output text of ~output_tokens(row_key, mean)
  /// tokens (projection/summarization tasks).
  std::string generate_text(std::string_view row_key, double mean_tokens) const;

 private:
  ModelProfile profile_;
};

}  // namespace llmq::llm
