#include "align/recipe_model.h"

#include <gtest/gtest.h>

#include <cmath>

namespace vpr::align {
namespace {

std::vector<double> test_insight(double fill = 0.3) {
  std::vector<double> iv(72, fill);
  iv.back() = 1.0;
  return iv;
}

std::vector<int> zero_decisions() { return std::vector<int>(40, 0); }

RecipeModel make_model(std::uint64_t seed = 3) {
  util::Rng rng{seed};
  return RecipeModel{ModelConfig{}, rng};
}

TEST(RecipeModel, TableThreeDimensions) {
  const auto model = make_model();
  // Table III parameter inventory:
  //  token embed 3x32, pos enc 40x32, insight 72x32+32,
  //  decoder (4 attn mats 32x32 x2 blocks, FFN 32x64+64 + 64x32+32,
  //  3 layernorms 2x32), head 32x1+1.
  const std::size_t expected =
      3 * 32 + 40 * 32 + (72 * 32 + 32) +
      (8 * 32 * 32 + (32 * 64 + 64) + (64 * 32 + 32) + 3 * 2 * 32) +
      (32 + 1);
  EXPECT_EQ(model.parameter_count(), expected);
}

TEST(RecipeModel, LogitsShape) {
  const auto model = make_model();
  const auto logits =
      model.forward_logits(test_insight(), zero_decisions(), 40);
  EXPECT_EQ(logits.rows(), 40);
  EXPECT_EQ(logits.cols(), 1);
  const auto partial = model.forward_logits(test_insight(), {}, 1);
  EXPECT_EQ(partial.rows(), 1);
}

TEST(RecipeModel, SequenceLogProbIsSumOfStepLogProbs) {
  const auto model = make_model();
  const auto iv = test_insight();
  std::vector<int> bits(40, 0);
  bits[3] = 1;
  bits[20] = 1;
  const double lp = model.log_prob(iv, bits);
  const auto probs = model.step_probs(iv, bits);
  double expected = 0.0;
  for (int t = 0; t < 40; ++t) {
    const double p = probs[static_cast<std::size_t>(t)];
    expected += std::log(bits[static_cast<std::size_t>(t)] == 1 ? p : 1.0 - p);
  }
  EXPECT_NEAR(lp, expected, 1e-9);
  EXPECT_LT(lp, 0.0);
}

TEST(RecipeModel, ProbabilitiesAreNormalizedPerStep) {
  const auto model = make_model();
  const auto probs = model.step_probs(test_insight(), zero_decisions());
  for (const double p : probs) {
    EXPECT_GT(p, 0.0);
    EXPECT_LT(p, 1.0);
  }
}

TEST(RecipeModel, NextProbMatchesTeacherForcedStep) {
  const auto model = make_model();
  const auto iv = test_insight();
  std::vector<int> bits(40, 0);
  bits[0] = 1;
  bits[1] = 0;
  bits[2] = 1;
  const auto forced = model.step_probs(iv, bits);
  // Decoding the prefix one position at a time must give the teacher-forced
  // (prefill) prob at every step: the same inputs are visible under the
  // causal mask.
  DecodeSession session = model.decode(iv, 1);
  for (int t = 0; t < 40; ++t) {
    const double next =
        session.step(0, t == 0 ? 0 : bits[static_cast<std::size_t>(t - 1)]);
    EXPECT_EQ(next, forced[static_cast<std::size_t>(t)]) << "step " << t;
  }
}

TEST(RecipeModel, CausalityDecisionAffectsOnlyLaterSteps) {
  const auto model = make_model();
  const auto iv = test_insight();
  std::vector<int> a(40, 0);
  std::vector<int> b(40, 0);
  b[10] = 1;  // differs at position 10
  const auto pa = model.step_probs(iv, a);
  const auto pb = model.step_probs(iv, b);
  for (int t = 0; t <= 10; ++t) {
    EXPECT_NEAR(pa[static_cast<std::size_t>(t)],
                pb[static_cast<std::size_t>(t)], 1e-10)
        << "step " << t << " saw a future decision";
  }
  // Some later step must differ.
  double diff = 0.0;
  for (int t = 11; t < 40; ++t) {
    diff += std::fabs(pa[static_cast<std::size_t>(t)] -
                      pb[static_cast<std::size_t>(t)]);
  }
  EXPECT_GT(diff, 1e-8);
}

TEST(RecipeModel, InsightChangesDistribution) {
  const auto model = make_model();
  const auto p_low = model.step_probs(test_insight(0.0), zero_decisions());
  const auto p_high = model.step_probs(test_insight(0.9), zero_decisions());
  double diff = 0.0;
  for (int t = 0; t < 40; ++t) {
    diff += std::fabs(p_low[static_cast<std::size_t>(t)] -
                      p_high[static_cast<std::size_t>(t)]);
  }
  EXPECT_GT(diff, 1e-6);
}

TEST(RecipeModel, GradientsFlowToAllParameters) {
  auto model = make_model();
  std::vector<int> bits(40, 0);
  bits[7] = 1;
  model.zero_grad();
  nn::Tensor lp = model.sequence_log_prob(test_insight(), bits);
  lp.backward();
  std::size_t nonzero = 0;
  std::size_t total = 0;
  for (const auto& p : model.parameters()) {
    for (const double g : p.grad()) {
      ++total;
      if (g != 0.0) ++nonzero;
    }
  }
  // The token table row for SOS and both decisions are used; most weights
  // should receive gradient.
  EXPECT_GT(static_cast<double>(nonzero) / static_cast<double>(total), 0.5);
}

TEST(RecipeModel, InputValidation) {
  const auto model = make_model();
  const std::vector<double> short_insight(10, 0.0);
  EXPECT_THROW((void)model.log_prob(short_insight, zero_decisions()),
               std::invalid_argument);
  const std::vector<int> short_bits(10, 0);
  EXPECT_THROW((void)model.log_prob(test_insight(), short_bits),
               std::invalid_argument);
  std::vector<int> bad_bits(40, 0);
  bad_bits[5] = 2;
  EXPECT_THROW((void)model.log_prob(test_insight(), bad_bits),
               std::invalid_argument);
  EXPECT_THROW((void)model.step_probs(test_insight(), short_bits),
               std::invalid_argument);
}

TEST(RecipeModel, MultiLayerDecoderStacks) {
  util::Rng rng{77};
  ModelConfig deep;
  deep.decoder_layers = 3;
  const RecipeModel model{deep, rng};
  // Parameter count grows by exactly two decoder layers over the default.
  util::Rng rng2{77};
  const RecipeModel shallow{ModelConfig{}, rng2};
  const std::size_t per_layer =
      8 * 32 * 32 + (32 * 64 + 64) + (64 * 32 + 32) + 3 * 2 * 32;
  EXPECT_EQ(model.parameter_count(),
            shallow.parameter_count() + 2 * per_layer);
  // Still causal and still produces valid probabilities.
  const auto probs = model.step_probs(test_insight(), zero_decisions());
  for (const double p : probs) {
    EXPECT_GT(p, 0.0);
    EXPECT_LT(p, 1.0);
  }
}

TEST(RecipeModel, MultiLayerCausalityPreserved) {
  util::Rng rng{78};
  ModelConfig deep;
  deep.decoder_layers = 2;
  const RecipeModel model{deep, rng};
  const auto iv = test_insight();
  std::vector<int> a(40, 0);
  std::vector<int> b(40, 0);
  b[5] = 1;
  const auto pa = model.step_probs(iv, a);
  const auto pb = model.step_probs(iv, b);
  for (int t = 0; t <= 5; ++t) {
    EXPECT_NEAR(pa[static_cast<std::size_t>(t)],
                pb[static_cast<std::size_t>(t)], 1e-10);
  }
}

TEST(RecipeModel, RejectsZeroLayers) {
  util::Rng rng{79};
  ModelConfig bad;
  bad.decoder_layers = 0;
  EXPECT_THROW(RecipeModel(bad, rng), std::invalid_argument);
}

TEST(RecipeModel, StateRoundTripReproducesOutputs) {
  auto model = make_model(5);
  const auto iv = test_insight();
  const auto before = model.step_probs(iv, zero_decisions());
  const auto snapshot = model.state();
  for (auto p : model.parameters()) {
    for (auto& v : p.data()) v += 0.05;
  }
  model.load_state(snapshot);
  const auto after = model.step_probs(iv, zero_decisions());
  for (int t = 0; t < 40; ++t) {
    EXPECT_DOUBLE_EQ(before[static_cast<std::size_t>(t)],
                     after[static_cast<std::size_t>(t)]);
  }
}

}  // namespace
}  // namespace vpr::align
