// Cross-session batched decoding (DecodeSession::step_batch) vs the tape
// forward: the batched forward stacks lane rows into blocked matmuls, and
// beam search's and the serving layer's correctness rest on every row being
// bitwise identical to the autograd forward over that lane's prefix. Exact
// equality is the contract, not a tolerance.

#include <gtest/gtest.h>

#include <span>
#include <stdexcept>
#include <vector>

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

/// P(r_t = 1 | prefix) from the full tape forward over the prefix.
double tape_prob(const RecipeModel& model, std::span<const double> iv,
                 std::span<const int> prefix) {
  const int t = static_cast<int>(prefix.size());
  const nn::Tensor logits = model.forward_logits(iv, prefix, t + 1);
  return nn::infer::stable_sigmoid(logits.at(t, 0));
}

TEST(StepBatch, MatchesTapeForwardExactly) {
  // Six lanes with diverging decisions advance together through step_batch
  // over the whole sequence; every probability must equal the tape forward
  // over that lane's prefix, for the paper's one-layer decoder and for
  // deeper stacks.
  for (const int layers : {1, 2, 3}) {
    util::Rng rng{61};
    ModelConfig config;
    config.decoder_layers = layers;
    const RecipeModel model{config, rng};
    const auto iv = test_insight(rng);
    const int n = model.config().num_recipes;
    constexpr int kLanes = 6;
    DecodeSession session = model.decode(iv, kLanes);

    std::vector<std::vector<int>> decisions(kLanes);
    std::vector<std::vector<double>> probs_of(kLanes);
    std::vector<BatchStep> steps;
    std::vector<double> probs(kLanes);
    for (int t = 0; t < n; ++t) {
      steps.clear();
      for (int lane = 0; lane < kLanes; ++lane) {
        const auto& bits = decisions[static_cast<std::size_t>(lane)];
        steps.push_back({&session, lane, bits.empty() ? 0 : bits.back()});
      }
      DecodeSession::step_batch(steps, probs.data());
      for (int lane = 0; lane < kLanes; ++lane) {
        const auto l = static_cast<std::size_t>(lane);
        probs_of[l].push_back(probs[l]);
        // Diverging per-lane decisions exercise distinct prefixes.
        decisions[l].push_back((t + lane) % 2);
      }
    }
    // The tape is causal, so one teacher-forced forward per lane yields
    // P(r_t = 1 | r_<t) at every position.
    for (int lane = 0; lane < kLanes; ++lane) {
      const auto l = static_cast<std::size_t>(lane);
      const nn::Tensor logits = model.forward_logits(iv, decisions[l], n);
      for (int t = 0; t < n; ++t) {
        ASSERT_EQ(probs_of[l][static_cast<std::size_t>(t)],
                  nn::infer::stable_sigmoid(logits.at(t, 0)))
            << "layers " << layers << " lane " << lane << " step " << t;
      }
    }
  }
}

TEST(StepBatch, MixedLaneLengthsAndCrossSessionBatch) {
  // Lanes at different positions, spread across two sessions with
  // different insights, batched together — the serving layer's steady
  // state. Each result must equal the tape forward over its lane's prefix.
  util::Rng rng{62};
  const RecipeModel model{ModelConfig{}, rng};
  const auto iv_a = test_insight(rng);
  const auto iv_b = test_insight(rng);
  DecodeSession a = model.decode(iv_a, 2);
  DecodeSession b = model.decode(iv_b, 2);

  // Stagger the lanes: a.lane0 at t=3 (prefix 1, 0 so far), a.lane1 at
  // t=1, b.lane0 at t=0.
  for (int t = 0; t < 3; ++t) (void)a.step(0, t % 2);
  (void)a.step(1, 0);

  const std::vector<BatchStep> steps{{&a, 0, 1}, {&a, 1, 1}, {&b, 0, 0}};
  double probs[3] = {};
  DecodeSession::step_batch(steps, probs);
  EXPECT_EQ(probs[0], tape_prob(model, iv_a, std::vector<int>{1, 0, 1}));
  EXPECT_EQ(probs[1], tape_prob(model, iv_a, std::vector<int>{1}));
  EXPECT_EQ(probs[2], tape_prob(model, iv_b, std::vector<int>{}));
  EXPECT_EQ(a.length(0), 4);
  EXPECT_EQ(a.length(1), 2);
  EXPECT_EQ(b.length(0), 1);
}

TEST(StepBatch, EmptyBatchIsANoOp) {
  DecodeSession::step_batch({}, nullptr);
}

TEST(StepBatch, RejectsSessionsFromDifferentModels) {
  util::Rng rng_a{63};
  util::Rng rng_b{64};
  const RecipeModel model_a{ModelConfig{}, rng_a};
  const RecipeModel model_b{ModelConfig{}, rng_b};
  util::Rng rng{65};
  const auto iv = test_insight(rng);
  DecodeSession a = model_a.decode(iv, 1);
  DecodeSession b = model_b.decode(iv, 1);
  const std::vector<BatchStep> steps{{&a, 0, 0}, {&b, 0, 0}};
  double probs[2] = {};
  EXPECT_THROW(DecodeSession::step_batch(steps, probs),
               std::invalid_argument);
  const std::vector<BatchStep> with_null{{&a, 0, 0}, {nullptr, 0, 0}};
  EXPECT_THROW(DecodeSession::step_batch(with_null, probs),
               std::invalid_argument);
}

TEST(DecodeSession, RebindMatchesFreshSession) {
  // The serve arena recycles sessions via rebind(); a rebound session must
  // be bitwise indistinguishable from a freshly constructed one.
  util::Rng rng{66};
  const RecipeModel model{ModelConfig{}, rng};
  const auto iv_first = test_insight(rng);
  const auto iv_second = test_insight(rng);

  DecodeSession recycled = model.decode(iv_first, 2);
  for (int t = 0; t < 5; ++t) (void)recycled.step(0, t % 2);
  recycled.rebind(iv_second);
  EXPECT_EQ(recycled.length(0), 0);
  EXPECT_EQ(recycled.length(1), 0);

  DecodeSession fresh = model.decode(iv_second, 2);
  for (int t = 0; t < model.config().num_recipes; ++t) {
    ASSERT_EQ(recycled.step(0, t % 2), fresh.step(0, t % 2))
        << "step " << t;
  }
}

TEST(DecodeSession, RebindAndCopyLaneIgnoreStaleSoAColumns) {
  // The K cache is feature-major (K^T): each feature lane holds one value
  // per position, so a lane that previously decoded further leaves stale
  // values INTERLEAVED between live columns rather than past a contiguous
  // row prefix. After rebind + copy_lane from a shorter prefix, those
  // stale columns must never enter attention: the recycled lanes must be
  // bitwise identical to a fresh session, including a survivor copy from
  // a lane whose destination previously ran longer.
  util::Rng rng{67};
  const RecipeModel model{ModelConfig{}, rng};
  const auto iv_first = test_insight(rng);
  const auto iv_second = test_insight(rng);

  DecodeSession recycled = model.decode(iv_first, 2);
  // Fill lane 1's caches much deeper than anything the second decode will
  // copy over, so stale columns survive into the recycled buffers.
  for (int t = 0; t < 20; ++t) (void)recycled.step(1, t % 2);
  for (int t = 0; t < 3; ++t) (void)recycled.step(0, 1);
  recycled.rebind(iv_second);

  DecodeSession fresh = model.decode(iv_second, 2);
  for (int t = 0; t < 4; ++t) {
    ASSERT_EQ(recycled.step(0, t % 2), fresh.step(0, t % 2));
  }
  // Survivor copy into the lane with the deep stale cache: only the
  // 4-position per-feature prefixes may come across.
  recycled.copy_lane(1, 0);
  fresh.copy_lane(1, 0);
  EXPECT_EQ(recycled.length(1), fresh.length(1));
  for (int t = 4; t < model.config().num_recipes; ++t) {
    ASSERT_EQ(recycled.step(1, t % 2), fresh.step(1, t % 2))
        << "step " << t;
  }
}

}  // namespace
}  // namespace vpr::align
