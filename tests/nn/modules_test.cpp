#include "nn/modules.h"

#include <gtest/gtest.h>

#include <cmath>

#include "nn/tensor.h"
#include "util/rng.h"

namespace vpr::nn {
namespace {

TEST(Linear, ShapesAndAffine) {
  util::Rng rng{1};
  Linear fc{3, 2, rng};
  const Tensor x = Tensor::from({1, 0, 0, 0, 1, 0}, 2, 3);
  const Tensor y = fc.forward(x);
  EXPECT_EQ(y.rows(), 2);
  EXPECT_EQ(y.cols(), 2);
  // Row i of a one-hot input selects weight row i plus bias.
  const auto params = fc.parameters();
  const Tensor& w = params[0];
  const Tensor& b = params[1];
  EXPECT_NEAR(y.at(0, 0), w.at(0, 0) + b.at(0, 0), 1e-12);
  EXPECT_NEAR(y.at(1, 1), w.at(1, 1) + b.at(0, 1), 1e-12);
}

TEST(Linear, RejectsBadDims) {
  util::Rng rng{1};
  EXPECT_THROW(Linear(0, 2, rng), std::invalid_argument);
  EXPECT_THROW(Linear(2, -1, rng), std::invalid_argument);
}

TEST(Linear, ParameterCount) {
  util::Rng rng{1};
  const Linear fc{72, 32, rng};
  EXPECT_EQ(fc.parameter_count(), 72u * 32u + 32u);
}

TEST(Embedding, LooksUpRows) {
  util::Rng rng{2};
  Embedding emb{5, 4, rng};
  const Tensor out = emb.forward({3, 3, 1});
  EXPECT_EQ(out.rows(), 3);
  EXPECT_EQ(out.cols(), 4);
  for (int j = 0; j < 4; ++j) {
    EXPECT_DOUBLE_EQ(out.at(0, j), out.at(1, j));
  }
}

TEST(Embedding, GradientFlowsToTable) {
  util::Rng rng{3};
  Embedding emb{4, 3, rng};
  Tensor out = sum(emb.forward({1, 1}));
  out.backward();
  auto table = emb.parameters()[0];
  // Row 1 used twice => gradient 2 everywhere in that row; others zero.
  EXPECT_DOUBLE_EQ(table.grad()[3], 2.0);
  EXPECT_DOUBLE_EQ(table.grad()[0], 0.0);
}

TEST(PositionalEncoding, AddsPerPositionOffsets) {
  util::Rng rng{4};
  PositionalEncoding pe{10, 4, rng};
  const Tensor x = Tensor::zeros(3, 4);
  const Tensor y = pe.forward(x);
  const Tensor table = pe.parameters()[0];
  for (int i = 0; i < 3; ++i) {
    for (int j = 0; j < 4; ++j) {
      EXPECT_DOUBLE_EQ(y.at(i, j), table.at(i, j));
    }
  }
}

TEST(PositionalEncoding, RejectsTooLongSequence) {
  util::Rng rng{4};
  PositionalEncoding pe{2, 4, rng};
  EXPECT_THROW((void)pe.forward(Tensor::zeros(3, 4)), std::invalid_argument);
}

TEST(LayerNormModule, OutputRowStats) {
  util::Rng rng{5};
  LayerNorm ln{8};
  const Tensor x = Tensor::randn(4, 8, rng, 3.0);
  const Tensor y = ln.forward(x);
  for (int i = 0; i < 4; ++i) {
    double m = 0.0;
    for (int j = 0; j < 8; ++j) m += y.at(i, j);
    EXPECT_NEAR(m / 8.0, 0.0, 1e-9);
  }
}

TEST(Attention, CausalMaskBlocksFuture) {
  util::Rng rng{6};
  SingleHeadAttention attn{4, rng};
  Tensor x = Tensor::randn(5, 4, rng, 1.0);
  const Tensor y1 = attn.forward(x, x, /*causal=*/true);
  // Perturb the last row; earlier outputs must not change under causal mask.
  auto data = x.data();
  for (int j = 0; j < 4; ++j) data[4 * 4 + j] += 10.0;
  const Tensor y2 = attn.forward(x, x, /*causal=*/true);
  for (int i = 0; i < 4; ++i) {
    for (int j = 0; j < 4; ++j) {
      EXPECT_NEAR(y1.at(i, j), y2.at(i, j), 1e-12) << i << "," << j;
    }
  }
  // The perturbed position itself does change.
  double diff = 0.0;
  for (int j = 0; j < 4; ++j) diff += std::fabs(y1.at(4, j) - y2.at(4, j));
  EXPECT_GT(diff, 1e-6);
}

TEST(Attention, NonCausalSeesEverything) {
  util::Rng rng{7};
  SingleHeadAttention attn{4, rng};
  Tensor x = Tensor::randn(3, 4, rng, 1.0);
  const Tensor y1 = attn.forward(x, x, /*causal=*/false);
  auto data = x.data();
  for (int j = 0; j < 4; ++j) data[2 * 4 + j] += 5.0;
  const Tensor y2 = attn.forward(x, x, /*causal=*/false);
  double diff = 0.0;
  for (int j = 0; j < 4; ++j) diff += std::fabs(y1.at(0, j) - y2.at(0, j));
  EXPECT_GT(diff, 1e-9);
}

TEST(Attention, CrossAttentionShape) {
  util::Rng rng{8};
  SingleHeadAttention attn{4, rng};
  const Tensor q = Tensor::randn(7, 4, rng, 1.0);
  const Tensor memory = Tensor::randn(1, 4, rng, 1.0);
  const Tensor y = attn.forward(q, memory, /*causal=*/false);
  EXPECT_EQ(y.rows(), 7);
  EXPECT_EQ(y.cols(), 4);
}

TEST(DecoderLayer, CausalityEndToEnd) {
  util::Rng rng{9};
  TransformerDecoderLayer layer{8, 16, rng};
  Tensor x = Tensor::randn(6, 8, rng, 1.0);
  const Tensor memory = Tensor::randn(1, 8, rng, 1.0);
  const Tensor y1 = layer.forward(x, memory);
  auto data = x.data();
  for (int j = 0; j < 8; ++j) data[5 * 8 + j] += 3.0;
  const Tensor y2 = layer.forward(x, memory);
  for (int i = 0; i < 5; ++i) {
    for (int j = 0; j < 8; ++j) {
      EXPECT_NEAR(y1.at(i, j), y2.at(i, j), 1e-10);
    }
  }
}

TEST(DecoderLayer, MemoryInfluencesAllPositions) {
  util::Rng rng{10};
  TransformerDecoderLayer layer{8, 16, rng};
  const Tensor x = Tensor::randn(4, 8, rng, 1.0);
  Tensor memory = Tensor::randn(1, 8, rng, 1.0);
  const Tensor y1 = layer.forward(x, memory);
  auto data = memory.data();
  for (int j = 0; j < 8; ++j) data[j] += 2.0;
  const Tensor y2 = layer.forward(x, memory);
  for (int i = 0; i < 4; ++i) {
    double diff = 0.0;
    for (int j = 0; j < 8; ++j) diff += std::fabs(y1.at(i, j) - y2.at(i, j));
    EXPECT_GT(diff, 1e-9) << "row " << i;
  }
}

TEST(Module, StateRoundTrip) {
  util::Rng rng{11};
  TransformerDecoderLayer layer{4, 8, rng};
  const Tensor x = Tensor::randn(3, 4, rng, 1.0);
  const Tensor memory = Tensor::randn(1, 4, rng, 1.0);
  const Tensor y1 = layer.forward(x, memory);
  const auto snapshot = layer.state();
  // Perturb all parameters.
  for (auto p : layer.parameters()) {
    for (auto& v : p.data()) v += 0.5;
  }
  const Tensor y_perturbed = layer.forward(x, memory);
  EXPECT_GT(std::fabs(y_perturbed.at(0, 0) - y1.at(0, 0)) +
                std::fabs(y_perturbed.at(2, 3) - y1.at(2, 3)),
            1e-9);
  layer.load_state(snapshot);
  const Tensor y2 = layer.forward(x, memory);
  for (int i = 0; i < 3; ++i) {
    for (int j = 0; j < 4; ++j) EXPECT_DOUBLE_EQ(y1.at(i, j), y2.at(i, j));
  }
}

TEST(Module, LoadStateRejectsWrongSize) {
  util::Rng rng{13};
  Linear fc{3, 2, rng};
  std::vector<double> tooSmall(3, 0.0);
  EXPECT_THROW(fc.load_state(tooSmall), std::invalid_argument);
}

TEST(Module, ZeroGradResetsAll) {
  util::Rng rng{14};
  Linear fc{3, 2, rng};
  Tensor loss = sum(fc.forward(Tensor::randn(2, 3, rng, 1.0)));
  loss.backward();
  bool any_nonzero = false;
  for (const auto& p : fc.parameters()) {
    for (const double g : p.grad()) any_nonzero |= g != 0.0;
  }
  EXPECT_TRUE(any_nonzero);
  fc.zero_grad();
  for (const auto& p : fc.parameters()) {
    for (const double g : p.grad()) EXPECT_DOUBLE_EQ(g, 0.0);
  }
}

TEST(FeedForward, ShapePreserved) {
  util::Rng rng{15};
  FeedForward ffn{8, 32, rng};
  const Tensor x = Tensor::randn(5, 8, rng, 1.0);
  const Tensor y = ffn.forward(x);
  EXPECT_EQ(y.rows(), 5);
  EXPECT_EQ(y.cols(), 8);
}

}  // namespace
}  // namespace vpr::nn
