// Scalar-vs-AVX2 dispatch tests: the exact-contract kernels must be
// BITWISE identical across ISAs on a shape grid hitting every
// tile-remainder branch. All AVX2 cases GTEST_SKIP on hosts/builds
// without the table.

#include <gtest/gtest.h>

#include <cmath>
#include <cstring>
#include <vector>

#include "align/beam.h"
#include "align/recipe_model.h"
#include "nn/kernels.h"
#include "util/rng.h"

namespace vpr::nn::kern {
namespace {

/// RAII: force an ISA for one test, restore the previous on exit.
class DispatchGuard {
 public:
  DispatchGuard() : isa_(active_isa()) {}
  ~DispatchGuard() { force_isa(isa_); }
  DispatchGuard(const DispatchGuard&) = delete;
  DispatchGuard& operator=(const DispatchGuard&) = delete;

 private:
  Isa isa_;
};

std::vector<double> random_vec(std::size_t n, util::Rng& rng) {
  std::vector<double> v(n);
  for (double& x : v) x = rng.uniform(-1.0, 1.0);
  return v;
}

bool bitwise_equal(const std::vector<double>& a,
                   const std::vector<double>& b) {
  return a.size() == b.size() &&
         (a.empty() ||
          std::memcmp(a.data(), b.data(), a.size() * sizeof(double)) == 0);
}

// Shape grid straddling every tile/vector remainder: the scalar kernel's
// 16-column tile and m-pair loop, and the AVX2 kernel's 16/4/scalar column
// blocks and 8/4/scalar position blocks.
constexpr int kSizes[] = {1, 2, 3, 5, 8, 15, 16, 17, 31, 33, 48};
constexpr int kInner[] = {1, 2, 31, 32, 33};

TEST(KernelsDispatch, ProbeAndForceRoundTrip) {
  DispatchGuard guard;
  ASSERT_TRUE(force_isa(Isa::kScalar));
  EXPECT_EQ(active_isa(), Isa::kScalar);
  EXPECT_STREQ(isa_name(active_isa()), "scalar");
  if (avx2_supported()) {
    ASSERT_TRUE(force_isa(Isa::kAvx2));
    EXPECT_EQ(active_isa(), Isa::kAvx2);
    EXPECT_STREQ(isa_name(active_isa()), "avx2");
  } else {
    EXPECT_FALSE(force_isa(Isa::kAvx2));
    EXPECT_EQ(active_isa(), Isa::kScalar);
  }
}

TEST(KernelsDispatch, MatmulBitwiseAcrossIsas) {
  if (!avx2_supported()) GTEST_SKIP() << "no AVX2 on this host/build";
  DispatchGuard guard;
  util::Rng rng{77};
  for (int m : kSizes) {
    for (int n : kSizes) {
      for (int k : kInner) {
        const auto a = random_vec(static_cast<std::size_t>(m) * k, rng);
        const auto b = random_vec(static_cast<std::size_t>(k) * n, rng);
        std::vector<double> c_scalar(static_cast<std::size_t>(m) * n);
        std::vector<double> c_avx2(c_scalar.size());
        ASSERT_TRUE(force_isa(Isa::kScalar));
        matmul(a.data(), b.data(), c_scalar.data(), m, k, n);
        ASSERT_TRUE(force_isa(Isa::kAvx2));
        matmul(a.data(), b.data(), c_avx2.data(), m, k, n);
        EXPECT_TRUE(bitwise_equal(c_scalar, c_avx2))
            << "m=" << m << " k=" << k << " n=" << n;
      }
    }
  }
}

TEST(KernelsDispatch, MatmulDegenerateShapesZeroFill) {
  if (!avx2_supported()) GTEST_SKIP() << "no AVX2 on this host/build";
  DispatchGuard guard;
  ASSERT_TRUE(force_isa(Isa::kAvx2));
  std::vector<double> c(6, 42.0);
  const double a[6] = {1, 2, 3, 4, 5, 6};
  matmul(a, a, c.data(), 2, 0, 3);
  for (double x : c) EXPECT_EQ(x, 0.0);
}

TEST(KernelsDispatch, TnAccBitwiseAcrossIsas) {
  if (!avx2_supported()) GTEST_SKIP() << "no AVX2 on this host/build";
  DispatchGuard guard;
  util::Rng rng{78};
  for (int m : kInner) {
    for (int k : kSizes) {
      for (int n : kSizes) {
        auto a = random_vec(static_cast<std::size_t>(m) * k, rng);
        // Exercise the av == 0.0 skip branch on both paths.
        for (std::size_t i = 0; i < a.size(); i += 3) a[i] = 0.0;
        const auto b = random_vec(static_cast<std::size_t>(m) * n, rng);
        auto c_scalar = random_vec(static_cast<std::size_t>(k) * n, rng);
        auto c_avx2 = c_scalar;
        ASSERT_TRUE(force_isa(Isa::kScalar));
        matmul_tn_acc(a.data(), b.data(), c_scalar.data(), m, k, n);
        ASSERT_TRUE(force_isa(Isa::kAvx2));
        matmul_tn_acc(a.data(), b.data(), c_avx2.data(), m, k, n);
        EXPECT_TRUE(bitwise_equal(c_scalar, c_avx2))
            << "m=" << m << " k=" << k << " n=" << n;
      }
    }
  }
}

TEST(KernelsDispatch, NtAccExactIsScalarOracleOnBothIsas) {
  // The AVX2 nt_acc transposes B, runs the exact matmul and adds the
  // product into C: every dot keeps the scalar oracle's single accumulator
  // and order, so both ISAs must agree bitwise.
  if (!avx2_supported()) GTEST_SKIP() << "no AVX2 on this host/build";
  DispatchGuard guard;
  util::Rng rng{79};
  for (int m : {1, 5, 17, 33}) {
    for (int n : {1, 15, 31, 48}) {
      for (int k : kInner) {
        const auto a = random_vec(static_cast<std::size_t>(m) * k, rng);
        const auto b = random_vec(static_cast<std::size_t>(n) * k, rng);
        auto c_scalar = random_vec(static_cast<std::size_t>(m) * n, rng);
        auto c_avx2 = c_scalar;
        ASSERT_TRUE(force_isa(Isa::kScalar));
        matmul_nt_acc(a.data(), b.data(), c_scalar.data(), m, k, n);
        ASSERT_TRUE(force_isa(Isa::kAvx2));
        matmul_nt_acc(a.data(), b.data(), c_avx2.data(), m, k, n);
        EXPECT_TRUE(bitwise_equal(c_scalar, c_avx2))
            << "m=" << m << " k=" << k << " n=" << n;
      }
    }
  }
}

TEST(KernelsDispatch, AttnScoresBitwiseAcrossIsasAndMatchesDot) {
  if (!avx2_supported()) GTEST_SKIP() << "no AVX2 on this host/build";
  DispatchGuard guard;
  util::Rng rng{80};
  for (int d : {1, 3, 16, 32, 33}) {
    for (int len : kSizes) {
      const int ld = len + 7;  // capacity > len, like a decode cache
      const double scale = 1.0 / std::sqrt(static_cast<double>(d));
      const auto q = random_vec(static_cast<std::size_t>(d), rng);
      const auto kt = random_vec(static_cast<std::size_t>(d) * ld, rng);
      std::vector<double> s_scalar(static_cast<std::size_t>(len));
      std::vector<double> s_avx2(s_scalar.size());
      ASSERT_TRUE(force_isa(Isa::kScalar));
      attn_scores(q.data(), kt.data(), d, len, ld, scale, s_scalar.data());
      ASSERT_TRUE(force_isa(Isa::kAvx2));
      attn_scores(q.data(), kt.data(), d, len, ld, scale, s_avx2.data());
      EXPECT_TRUE(bitwise_equal(s_scalar, s_avx2))
          << "d=" << d << " len=" << len;
      // And both equal the reference: kern::dot over a row-major K row,
      // scaled — the summation order the kernel contract preserves.
      for (int j = 0; j < len; ++j) {
        std::vector<double> k_row(static_cast<std::size_t>(d));
        for (int c = 0; c < d; ++c) {
          k_row[static_cast<std::size_t>(c)] =
              kt[static_cast<std::size_t>(c) * ld + j];
        }
        const double want = dot(q.data(), k_row.data(), d) * scale;
        EXPECT_EQ(s_scalar[static_cast<std::size_t>(j)], want)
            << "d=" << d << " len=" << len << " j=" << j;
      }
    }
  }
}

TEST(KernelsDispatch, ScatterRowsAndColsBitwiseAcrossIsas) {
  if (!avx2_supported()) GTEST_SKIP() << "no AVX2 on this host/build";
  DispatchGuard guard;
  util::Rng rng{81};
  for (int rows : {1, 2, 7, 16}) {
    for (int dim : {1, 3, 4, 15, 32, 33}) {
      const int ld = rows + 5;
      const auto src = random_vec(static_cast<std::size_t>(rows) * dim, rng);
      for (const Isa isa : {Isa::kScalar, Isa::kAvx2}) {
        ASSERT_TRUE(force_isa(isa));
        // scatter_rows: row i lands contiguously at dst_rows[i].
        std::vector<double> flat_rows(src.size(), -1.0);
        std::vector<double*> dst(static_cast<std::size_t>(rows));
        for (int i = 0; i < rows; ++i) {
          dst[static_cast<std::size_t>(i)] =
              flat_rows.data() + static_cast<std::size_t>(i) * dim;
        }
        scatter_rows(src.data(), rows, dim, dst.data());
        EXPECT_TRUE(bitwise_equal(flat_rows, src))
            << isa_name(isa) << " rows=" << rows << " dim=" << dim;
        // scatter_cols: row i becomes column i of a (dim x ld) target.
        std::vector<double> kt(static_cast<std::size_t>(dim) * ld, -1.0);
        for (int i = 0; i < rows; ++i) {
          dst[static_cast<std::size_t>(i)] = kt.data() + i;
        }
        scatter_cols(src.data(), rows, dim, dst.data(), ld);
        for (int i = 0; i < rows; ++i) {
          for (int c = 0; c < dim; ++c) {
            EXPECT_EQ(kt[static_cast<std::size_t>(c) * ld + i],
                      src[static_cast<std::size_t>(i) * dim + c])
                << isa_name(isa) << " i=" << i << " c=" << c;
          }
        }
      }
    }
  }
}

TEST(KernelsDispatch, BeamSearchBitwiseAcrossIsas) {
  // End-to-end: the full KV-cached beam decode — scores, softmax, value
  // mix, projections, survivor copies — lands on identical bits whichever
  // kernel table is installed.
  if (!avx2_supported()) GTEST_SKIP() << "no AVX2 on this host/build";
  DispatchGuard guard;
  util::Rng rng{84};
  const align::ModelConfig config{};
  const align::RecipeModel model{config, rng};
  std::vector<double> insight(
      static_cast<std::size_t>(config.insight_dim));
  for (double& x : insight) x = rng.uniform(-1.0, 1.0);

  ASSERT_TRUE(force_isa(Isa::kScalar));
  const auto scalar_result = align::beam_search(model, insight, 5);
  ASSERT_TRUE(force_isa(Isa::kAvx2));
  const auto avx2_result = align::beam_search(model, insight, 5);

  ASSERT_EQ(scalar_result.size(), avx2_result.size());
  for (std::size_t i = 0; i < scalar_result.size(); ++i) {
    EXPECT_EQ(scalar_result[i].recipes.to_u64(),
              avx2_result[i].recipes.to_u64());
    EXPECT_EQ(scalar_result[i].log_prob, avx2_result[i].log_prob);
  }
}

}  // namespace
}  // namespace vpr::nn::kern
