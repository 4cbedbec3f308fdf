// Fig 6 — impact of GGR reordering on answer accuracy, via statistical
// bootstrapping (10,000 resamples of exact-match accuracy), for
// Llama-3-8B, Llama-3-70B, and GPT-4o task-model profiles.
// Paper: GGR within ±5% of original everywhere except FEVER + Llama3-8B,
// where moving the claim field to the end *helps* by +14.2%; the larger
// models are robust to field position.

#include "bench_common.hpp"
#include "util/stats.hpp"

using namespace llmq;

namespace {

std::vector<double> exact_match(const std::vector<std::string>& answers,
                                const std::vector<std::string>& truth) {
  // The paper grades 100 hand-labeled rows per dataset (FEVER: all); we
  // cap the graded subset so full-scale runs stay fast while keeping CIs
  // tight enough to see the FEVER effect.
  const std::size_t n = std::min<std::size_t>(truth.size(), 1500);
  std::vector<double> xs;
  xs.reserve(n);
  for (std::size_t i = 0; i < n; ++i)
    xs.push_back(i < answers.size() && answers[i] == truth[i] ? 1.0 : 0.0);
  return xs;
}

}  // namespace

int main(int argc, char** argv) {
  const auto opt = bench::parse_options(argc, argv, bench::kStdoutOnly);
  bench::print_header("Fig 6 — accuracy, original vs GGR ordering", opt);

  const std::size_t kResamples = 10000;
  struct ModelCase {
    llm::ModelProfile profile;
  };
  const ModelCase models[] = {{llm::profile_llama3_8b()},
                              {llm::profile_llama3_70b()},
                              {llm::profile_gpt4o()}};

  for (const auto& mc : models) {
    util::print_banner(mc.profile.name);
    util::TablePrinter tp({"dataset", "orig acc (median)", "GGR acc (median)",
                           "diff", "95% CI orig", "95% CI GGR"});
    for (const char* key :
         {"movies", "products", "bird", "pdmx", "beer", "fever"}) {
      const auto d = bench::load(key, opt);
      const std::string qid =
          std::string(key) + (std::string(key) == "fever" ? "-rag" : "-filter");
      const auto& spec = data::query_by_id(qid);

      auto cfg_orig = query::ExecConfig::standard(query::Method::CacheOriginal);
      auto cfg_ggr = query::ExecConfig::standard(query::Method::CacheGgr);
      cfg_orig.model_profile = mc.profile;
      cfg_ggr.model_profile = mc.profile;
      cfg_orig.scale_kv_pool(opt.kv_fraction(key));
      cfg_ggr.scale_kv_pool(opt.kv_fraction(key));

      const auto orig = query::run_query(d, spec, cfg_orig);
      const auto ggr = query::run_query(d, spec, cfg_ggr);

      const auto xs_orig = exact_match(orig.answers, d.truth);
      const auto xs_ggr = exact_match(ggr.answers, d.truth);
      util::Rng rng_o(opt.seed ^ 0xACC0);
      util::Rng rng_g(opt.seed ^ 0xACC1);
      const auto b_orig = util::bootstrap_mean(xs_orig, kResamples, rng_o);
      const auto b_ggr = util::bootstrap_mean(xs_ggr, kResamples, rng_g);

      const double diff = b_ggr.median - b_orig.median;
      tp.add_row({d.name, bench::pct(b_orig.median),
                  bench::pct(b_ggr.median),
                  (diff >= 0 ? "+" : "") + util::fmt(100 * diff, 1) + "%",
                  "[" + bench::pct(b_orig.ci_low) + ", " +
                      bench::pct(b_orig.ci_high) + "]",
                  "[" + bench::pct(b_ggr.ci_low) + ", " +
                      bench::pct(b_ggr.ci_high) + "]"});
    }
    tp.print();
  }
  std::printf("\npaper reference (median diff GGR - original):\n"
              "  Llama3-8B : +3 -1 +0 +1 -6 +14.2 (FEVER outlier: claim "
              "moved to prompt end)\n"
              "  Llama3-70B: +4 +1 +1 -1 -3 +1.7\n"
              "  GPT-4o    : -3 -2 -1 +4 -3 -2.4\n");
  return 0;
}
