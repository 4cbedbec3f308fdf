#include "serve/length_predictor.hpp"

namespace llmq::serve {

namespace {
/// Weight of the newest observation in the running mean/error.
constexpr double kEwmaAlpha = 0.25;
/// Prediction for a tenant with no observations yet.
constexpr double kInitialEstimate = 8.0;
}  // namespace

void LengthPredictor::observe(std::uint32_t tenant,
                              std::size_t output_tokens) {
  State& s = per_tenant_[tenant];
  if (s.n == 0) {
    s.mean = kInitialEstimate;
    s.abs_err = 0.0;
  }
  const double x = static_cast<double>(output_tokens);
  const double err = x > s.mean ? x - s.mean : s.mean - x;
  s.abs_err += kEwmaAlpha * (err - s.abs_err);
  s.mean += kEwmaAlpha * (x - s.mean);
  ++s.n;
}

double LengthPredictor::predict(std::uint32_t tenant) const {
  const auto it = per_tenant_.find(tenant);
  const double mean =
      it == per_tenant_.end() ? kInitialEstimate : it->second.mean;
  const double pad = it == per_tenant_.end() ? 0.0 : it->second.abs_err;
  const double p = mean + opt_.mispredict_penalty * pad;
  return p < 1.0 ? 1.0 : p;
}

std::size_t LengthPredictor::predict_tokens(std::uint32_t tenant) const {
  if (!opt_.enabled) return 0;
  const double p = predict(tenant) + 0.5;
  return p < 1.0 ? 1 : static_cast<std::size_t>(p);
}

std::size_t LengthPredictor::observations(std::uint32_t tenant) const {
  const auto it = per_tenant_.find(tenant);
  return it == per_tenant_.end() ? 0 : it->second.n;
}

}  // namespace llmq::serve
