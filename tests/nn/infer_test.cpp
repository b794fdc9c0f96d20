// The tape-free inference path must reproduce the autograd forward
// bit-for-bit: the shared kernels and the row helpers perform the same
// additions in the same order. These tests pin that contract per module.

#include <gtest/gtest.h>

#include <cmath>
#include <vector>

#include "nn/infer.h"
#include "nn/kernels.h"
#include "nn/modules.h"
#include "nn/tensor.h"

namespace vpr::nn {
namespace {

Tensor random_input(int rows, int cols, util::Rng& rng) {
  return Tensor::randn(rows, cols, rng, 1.0);
}

void expect_bitwise(const Tensor& expected, const std::vector<double>& got) {
  const auto want = expected.data();
  ASSERT_EQ(want.size(), got.size());
  for (std::size_t i = 0; i < got.size(); ++i) {
    EXPECT_EQ(want[i], got[i]) << "element " << i;
  }
}

TEST(Kernels, MatmulBranchesAgreeElementwise) {
  // The m == 1 strided branch and the m >= 4 transposed/blocked branch must
  // produce identical bits for the same logical row, since the decode path
  // computes rows one at a time while the tape computes them in bulk.
  util::Rng rng{101};
  const int m = 7;
  const int k = 33;
  const int n = 29;
  const Tensor a = random_input(m, k, rng);
  const Tensor b = random_input(k, n, rng);
  std::vector<double> bulk(static_cast<std::size_t>(m) * n);
  kern::matmul(a.data().data(), b.data().data(), bulk.data(), m, k, n);
  std::vector<double> row(static_cast<std::size_t>(n));
  for (int i = 0; i < m; ++i) {
    kern::matmul(a.data().data() + static_cast<std::size_t>(i) * k,
                 b.data().data(), row.data(), 1, k, n);
    for (int j = 0; j < n; ++j) {
      EXPECT_EQ(bulk[static_cast<std::size_t>(i) * n + j],
                row[static_cast<std::size_t>(j)])
          << "row " << i << " col " << j;
    }
  }
}

TEST(InferPath, LinearMatchesForward) {
  util::Rng rng{7};
  const Linear fc{13, 9, rng};
  const Tensor x = random_input(6, 13, rng);
  std::vector<double> out(6 * 9);
  fc.infer(x.data().data(), 6, out.data());
  expect_bitwise(fc.forward(x), out);
}

TEST(InferPath, LayerNormMatchesForward) {
  util::Rng rng{8};
  LayerNorm norm{16};
  // Perturb gain/bias away from the identity initialization.
  auto params = norm.parameters();
  for (auto& p : params) {
    auto values = p.data();
    for (std::size_t i = 0; i < values.size(); ++i) {
      values[i] += 0.01 * static_cast<double>(i + 1);
    }
  }
  const Tensor x = random_input(5, 16, rng);
  std::vector<double> out(5 * 16);
  norm.infer(x.data().data(), 5, out.data());
  expect_bitwise(norm.forward(x), out);
}

TEST(InferPath, FeedForwardMatchesForward) {
  util::Rng rng{9};
  const FeedForward ffn{12, 24, rng};
  const Tensor x = random_input(4, 12, rng);
  std::vector<double> out(4 * 12);
  ffn.infer(x.data().data(), 4, out.data());
  expect_bitwise(ffn.forward(x), out);
}

TEST(InferPath, DecoderLayerPrefillBatchMatchesForward) {
  // Prefill shape: positions 0..len-1 of one lane as one batch, every row
  // on the same self-attention cache, against a 3-row memory. All K/V
  // columns are written before any row attends, so row t sees exactly
  // positions 0..t: the causal full-sequence forward.
  util::Rng rng{12};
  const int d = 16;
  const int len = 10;
  const int mem_rows = 3;
  const TransformerDecoderLayer layer{d, 32, rng};
  const Tensor x = random_input(len, d, rng);
  const Tensor mem = random_input(mem_rows, d, rng);

  std::vector<double> cross_kt(static_cast<std::size_t>(mem_rows) * d);
  std::vector<double> cross_v(static_cast<std::size_t>(mem_rows) * d);
  layer.infer_cross_kv(mem.data().data(), mem_rows, cross_kt.data(),
                       cross_v.data());
  // Self K cache is feature-major (d x len, leading dimension len).
  std::vector<double> self_kt(static_cast<std::size_t>(len) * d);
  std::vector<double> self_v(static_cast<std::size_t>(len) * d);
  std::vector<int> pos(len);
  for (int t = 0; t < len; ++t) pos[static_cast<std::size_t>(t)] = t;
  const std::vector<RowCache> caches(
      len, {self_kt.data(), self_v.data(), cross_kt.data(), cross_v.data()});
  std::vector<double> out(static_cast<std::size_t>(len) * d);
  layer.infer_step_batch(x.data().data(), len, pos.data(), caches.data(), len,
                         mem_rows, out.data());
  expect_bitwise(layer.forward(x, mem), out);
}

TEST(InferPath, DecoderLayerRaggedDecodeBatchMatchesForward) {
  // Decode shape: independent lanes with their own inputs, memories and
  // caches, stepped one position per batch while their lengths diverge,
  // so batches mix positions and shrink to a single row. Each output row
  // must equal the matching row of the lane's full-sequence forward.
  util::Rng rng{13};
  const int d = 16;
  const TransformerDecoderLayer layer{d, 32, rng};
  const std::vector<int> lens{9, 4, 7};
  const std::size_t lanes = lens.size();
  const int cap = 9;  // cache capacity = leading dimension of self K^T
  std::vector<Tensor> xs;
  std::vector<Tensor> mems;
  std::vector<Tensor> bulk;
  std::vector<std::vector<double>> cross_kt(lanes, std::vector<double>(d));
  std::vector<std::vector<double>> cross_v(lanes, std::vector<double>(d));
  std::vector<std::vector<double>> self_kt(
      lanes, std::vector<double>(static_cast<std::size_t>(cap) * d));
  std::vector<std::vector<double>> self_v(
      lanes, std::vector<double>(static_cast<std::size_t>(cap) * d));
  for (std::size_t lane = 0; lane < lanes; ++lane) {
    xs.push_back(random_input(lens[lane], d, rng));
    mems.push_back(random_input(1, d, rng));
    bulk.push_back(layer.forward(xs[lane], mems[lane]));
    layer.infer_cross_kv(mems[lane].data().data(), 1, cross_kt[lane].data(),
                         cross_v[lane].data());
  }
  // Lane 1 starts two steps late, so positions differ within a batch.
  const std::vector<int> start{0, 2, 0};
  int checked = 0;
  for (int round = 0; round < 11; ++round) {
    std::vector<std::size_t> live;
    std::vector<int> pos;
    std::vector<double> rows;
    std::vector<RowCache> caches;
    for (std::size_t lane = 0; lane < lanes; ++lane) {
      const int t = round - start[lane];
      if (t < 0 || t >= lens[lane]) continue;
      live.push_back(lane);
      pos.push_back(t);
      const double* row =
          xs[lane].data().data() + static_cast<std::size_t>(t) * d;
      rows.insert(rows.end(), row, row + d);
      caches.push_back({self_kt[lane].data(), self_v[lane].data(),
                        cross_kt[lane].data(), cross_v[lane].data()});
    }
    const int n_rows = static_cast<int>(live.size());
    if (n_rows == 0) continue;
    std::vector<double> out(rows.size());
    layer.infer_step_batch(rows.data(), n_rows, pos.data(), caches.data(), cap,
                           1, out.data());
    for (int i = 0; i < n_rows; ++i) {
      const std::size_t lane = live[static_cast<std::size_t>(i)];
      const int t = pos[static_cast<std::size_t>(i)];
      for (int j = 0; j < d; ++j) {
        ASSERT_EQ(bulk[lane].at(t, j), out[static_cast<std::size_t>(i) * d + j])
            << "lane " << lane << " pos " << t << " dim " << j;
      }
      ++checked;
    }
  }
  EXPECT_EQ(checked, 9 + 4 + 7);
}

TEST(InferPath, RowHelpersMatchTensorOps) {
  util::Rng rng{14};
  const Tensor x = random_input(3, 10, rng);
  const Tensor soft = softmax_rows(x);
  std::vector<double> row(10);
  for (int i = 0; i < 3; ++i) {
    std::copy_n(x.data().data() + static_cast<std::size_t>(i) * 10, 10,
                row.data());
    infer::softmax_row(row.data(), 10);
    for (int j = 0; j < 10; ++j) {
      EXPECT_EQ(soft.at(i, j), row[static_cast<std::size_t>(j)]);
    }
  }
  for (const double z : {-3.7, -0.0, 0.0, 1.2, 40.0}) {
    const Tensor t = Tensor::scalar(z);
    EXPECT_EQ(sigmoid(t).item(), infer::stable_sigmoid(z));
    EXPECT_EQ(logsigmoid(t).item(), infer::logsigmoid_value(z));
    EXPECT_EQ(relu(t).item(), infer::relu_value(z));
  }
}

TEST(Module, GradientsRoundTrip) {
  util::Rng rng{15};
  Linear fc{4, 3, rng};
  const Tensor x = random_input(2, 4, rng);
  sum(fc.forward(x)).backward();
  const auto grads = fc.gradients();
  ASSERT_EQ(grads.size(), fc.parameter_count());
  double nonzero = 0.0;
  for (const double g : grads) nonzero += std::fabs(g);
  EXPECT_GT(nonzero, 0.0);
  // Accumulating the snapshot doubles every gradient.
  fc.accumulate_gradients(grads);
  const auto doubled = fc.gradients();
  for (std::size_t i = 0; i < grads.size(); ++i) {
    EXPECT_EQ(doubled[i], 2.0 * grads[i]);
  }
  // Size mismatch is rejected.
  EXPECT_THROW(fc.accumulate_gradients(std::vector<double>(3, 0.0)),
               std::invalid_argument);
}

}  // namespace
}  // namespace vpr::nn
