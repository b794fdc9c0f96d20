#include "align/beam.h"

#include <gtest/gtest.h>

#include <cmath>
#include <set>

#include "nn/optim.h"

namespace vpr::align {
namespace {

std::vector<double> iv() {
  std::vector<double> v(72, 0.1);
  v.back() = 1.0;
  return v;
}

RecipeModel make_model(std::uint64_t seed = 41) {
  util::Rng rng{seed};
  return RecipeModel{ModelConfig{}, rng};
}

TEST(BeamSearch, ReturnsRequestedWidthSortedByScore) {
  const auto model = make_model();
  const auto beams = beam_search(model, iv(), 5);
  ASSERT_EQ(beams.size(), 5u);
  for (std::size_t i = 1; i < beams.size(); ++i) {
    EXPECT_GE(beams[i - 1].log_prob, beams[i].log_prob);
  }
}

TEST(BeamSearch, CandidatesAreDistinct) {
  const auto model = make_model();
  const auto beams = beam_search(model, iv(), 8);
  std::set<std::uint64_t> unique;
  for (const auto& b : beams) unique.insert(b.recipes.to_u64());
  EXPECT_EQ(unique.size(), beams.size());
}

TEST(BeamSearch, TopCandidateMatchesGreedyArgmax) {
  const auto model = make_model();
  // Width 1 == greedy decoding.
  const auto greedy = beam_search(model, iv(), 1);
  ASSERT_EQ(greedy.size(), 1u);
  // step_probs is causal: position t reads only bits[0, t), which are
  // final by the time it is read.
  std::vector<int> bits(40, 0);
  for (std::size_t t = 0; t < bits.size(); ++t) {
    const double p = model.step_probs(iv(), bits)[t];
    bits[t] = p > 0.5 ? 1 : 0;
  }
  EXPECT_EQ(greedy.front().recipes, flow::RecipeSet::from_bits(bits));
}

TEST(BeamSearch, ScoreEqualsSequenceLogProb) {
  const auto model = make_model();
  const auto beams = beam_search(model, iv(), 3);
  for (const auto& b : beams) {
    EXPECT_NEAR(b.log_prob, model.log_prob(iv(), b.recipes.to_bits()), 1e-9);
  }
}

TEST(BeamSearch, WiderBeamNeverWorseTop1) {
  const auto model = make_model();
  const auto narrow = beam_search(model, iv(), 1);
  const auto wide = beam_search(model, iv(), 10);
  EXPECT_GE(wide.front().log_prob, narrow.front().log_prob - 1e-12);
}

TEST(BeamSearch, FindsTrainedTarget) {
  auto model = make_model(43);
  // Teach the model to emit one specific set with high confidence.
  std::vector<int> target(40, 0);
  target[4] = target[18] = target[33] = 1;
  nn::Adam opt{model.parameters(), 5e-3};
  for (int step = 0; step < 80; ++step) {
    opt.zero_grad();
    nn::Tensor loss = nn::neg(model.sequence_log_prob(iv(), target));
    loss.backward();
    opt.step();
  }
  const auto beams = beam_search(model, iv(), 3);
  EXPECT_EQ(beams.front().recipes, flow::RecipeSet::from_bits(target));
}

TEST(BeamSearch, RejectsBadWidth) {
  const auto model = make_model();
  EXPECT_THROW((void)beam_search(model, iv(), 0), std::invalid_argument);
}

/// Property sweep over widths: output is always valid and sorted.
class BeamWidthSweep : public ::testing::TestWithParam<int> {};

TEST_P(BeamWidthSweep, WellFormed) {
  const auto model = make_model(47);
  const auto beams = beam_search(model, iv(), GetParam());
  EXPECT_EQ(beams.size(), static_cast<std::size_t>(GetParam()));
  for (const auto& b : beams) {
    EXPECT_LT(b.log_prob, 0.0);
    EXPECT_TRUE(std::isfinite(b.log_prob));
  }
}

INSTANTIATE_TEST_SUITE_P(Widths, BeamWidthSweep,
                         ::testing::Values(1, 2, 3, 5, 10));

}  // namespace
}  // namespace vpr::align
