// KV-cached incremental decoding (DecodeSession) vs the full-prefix
// autograd forward, and the incremental beam search vs the reference
// tape-driven search. The fast path is built to be bitwise identical, so
// every comparison here is exact, for the paper's one-layer decoder and
// for deeper stacks.

#include <gtest/gtest.h>

#include <cmath>
#include <vector>

#include "align/beam.h"
#include "align/recipe_model.h"
#include "nn/infer.h"

namespace vpr::align {
namespace {

std::vector<double> test_insight(util::Rng& rng) {
  std::vector<double> iv(72);
  for (double& v : iv) v = rng.normal() * 0.5;
  iv.back() = 1.0;
  return iv;
}

ModelConfig with_layers(int layers) {
  ModelConfig config;
  config.decoder_layers = layers;
  return config;
}

/// P(r_t = 1 | prefix) from the full tape forward over the prefix.
double tape_next_prob(const RecipeModel& model, std::span<const double> iv,
                      std::span<const int> prefix) {
  const int t = static_cast<int>(prefix.size());
  const nn::Tensor logits = model.forward_logits(iv, prefix, t + 1);
  return nn::infer::stable_sigmoid(logits.at(t, 0));
}

TEST(DecodeSession, IncrementalMatchesFullPrefixForward) {
  // Property: across random models, insights and random prefixes, every
  // incremental step probability equals the tape forward.
  for (const std::uint64_t seed : {21ULL, 22ULL, 23ULL}) {
    util::Rng rng{seed};
    const RecipeModel model{ModelConfig{}, rng};
    const auto iv = test_insight(rng);
    DecodeSession session = model.decode(iv, 1);
    std::vector<int> prefix;
    for (int t = 0; t < model.config().num_recipes; ++t) {
      const double fast =
          session.step(0, prefix.empty() ? 0 : prefix.back());
      const double slow = tape_next_prob(model, iv, prefix);
      ASSERT_EQ(fast, slow) << "seed " << seed << " step " << t;
      prefix.push_back(rng.bernoulli(0.5) ? 1 : 0);
    }
  }
}

TEST(DecodeSession, CopyLaneDuplicatesPrefixState) {
  util::Rng rng{31};
  const RecipeModel model{ModelConfig{}, rng};
  const auto iv = test_insight(rng);
  DecodeSession session = model.decode(iv, 3);
  // Advance lane 0 along an alternating prefix.
  std::vector<int> prefix;
  for (int t = 0; t < 17; ++t) {
    (void)session.step(0, prefix.empty() ? 0 : prefix.back());
    prefix.push_back(t % 2);
  }
  session.copy_lane(2, 0);
  EXPECT_EQ(session.length(2), session.length(0));
  // Both lanes continue identically.
  const double a = session.step(0, prefix.back());
  const double b = session.step(2, prefix.back());
  EXPECT_EQ(a, b);
  // Reset clears a lane for reuse.
  session.reset_lane(2);
  EXPECT_EQ(session.length(2), 0);
  const double first = session.step(2, 0);
  DecodeSession fresh = model.decode(iv, 1);
  EXPECT_EQ(first, fresh.step(0, 0));
}

TEST(DecodeSession, RejectsBadUsage) {
  util::Rng rng{32};
  const RecipeModel model{ModelConfig{}, rng};
  const auto iv = test_insight(rng);
  EXPECT_THROW((void)model.decode(iv, 0), std::invalid_argument);
  EXPECT_THROW((void)model.decode(std::vector<double>(3, 0.0), 1),
               std::invalid_argument);
  DecodeSession session = model.decode(iv, 1);
  EXPECT_THROW((void)session.step(1, 0), std::invalid_argument);
  (void)session.step(0, 0);
  EXPECT_THROW((void)session.step(0, 2), std::invalid_argument);
  for (int t = 1; t < model.config().num_recipes; ++t) {
    (void)session.step(0, 0);
  }
  EXPECT_THROW((void)session.step(0, 0), std::invalid_argument);
}

TEST(RecipeModel, FastLogProbMatchesTape) {
  for (const int layers : {1, 2, 3}) {
    for (const std::uint64_t seed : {41ULL, 42ULL}) {
      util::Rng rng{seed};
      const RecipeModel model{with_layers(layers), rng};
      const auto iv = test_insight(rng);
      std::vector<int> bits(40);
      for (int& b : bits) b = rng.bernoulli(0.4) ? 1 : 0;
      EXPECT_EQ(model.log_prob(iv, bits),
                model.sequence_log_prob(iv, bits).item())
          << "layers " << layers << " seed " << seed;
      // step_probs agrees with the tape logits elementwise.
      const auto probs = model.step_probs(iv, bits);
      const nn::Tensor logits = model.forward_logits(iv, bits, 40);
      for (int t = 0; t < 40; ++t) {
        EXPECT_EQ(probs[static_cast<std::size_t>(t)],
                  nn::infer::stable_sigmoid(logits.at(t, 0)))
            << "layers " << layers << " seed " << seed << " pos " << t;
      }
    }
  }
}

TEST(BeamSearch, MatchesReferenceCandidatesAndScores) {
  // Identical candidate sets and scores from the KV-cached search and the
  // tape-driven oracle, across widths, models and decoder depths.
  for (const int layers : {1, 2, 3}) {
    for (const std::uint64_t seed : {51ULL, 52ULL}) {
      util::Rng rng{seed};
      const RecipeModel model{with_layers(layers), rng};
      const auto iv = test_insight(rng);
      for (const int width : {1, 3, 5}) {
        const auto fast = beam_search(model, iv, width);
        const auto reference = beam_search_reference(model, iv, width);
        ASSERT_EQ(fast.size(), reference.size()) << "width " << width;
        for (std::size_t i = 0; i < fast.size(); ++i) {
          EXPECT_EQ(fast[i].recipes, reference[i].recipes)
              << "layers " << layers << " seed " << seed << " width " << width
              << " rank " << i;
          EXPECT_EQ(fast[i].log_prob, reference[i].log_prob)
              << "layers " << layers << " seed " << seed << " width " << width
              << " rank " << i;
        }
      }
    }
  }
}

}  // namespace
}  // namespace vpr::align
