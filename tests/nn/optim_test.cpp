#include "nn/optim.h"

#include <gtest/gtest.h>

#include <cmath>

#include "nn/modules.h"
#include "nn/tensor.h"
#include "util/rng.h"

namespace vpr::nn {
namespace {

/// Quadratic bowl: loss = sum((x - target)^2).
double quadratic_loss_after(Adam& opt, Tensor& x, double target,
                            int steps) {
  double loss_value = 0.0;
  for (int s = 0; s < steps; ++s) {
    opt.zero_grad();
    Tensor diff = add_scalar(x, -target);
    Tensor loss = sum(mul(diff, diff));
    loss.backward();
    opt.step();
    loss_value = loss.item();
  }
  return loss_value;
}

TEST(Adam, ConvergesOnQuadratic) {
  Tensor x = Tensor::from({5.0, -3.0}, 1, 2, true);
  Adam opt{{x}, 0.1};
  quadratic_loss_after(opt, x, 1.0, 500);
  EXPECT_NEAR(x.at(0, 0), 1.0, 1e-2);
  EXPECT_NEAR(x.at(0, 1), 1.0, 1e-2);
}

TEST(Adam, ClipGradNormScalesDown) {
  Tensor x = Tensor::from({3.0, 4.0}, 1, 2, true);
  Adam opt{{x}, 0.1};
  Tensor loss = sum(mul(x, x));  // grad = 2x = (6, 8), norm 10
  loss.backward();
  const double pre = opt.clip_grad_norm(1.0);
  EXPECT_NEAR(pre, 10.0, 1e-9);
  double norm = 0.0;
  for (const double g : x.grad()) norm += g * g;
  EXPECT_NEAR(std::sqrt(norm), 1.0, 1e-9);
}

TEST(Adam, ClipGradNormNoOpBelowThreshold) {
  Tensor x = Tensor::from({0.3, 0.4}, 1, 2, true);
  Adam opt{{x}, 0.1};
  Tensor loss = sum(mul(x, x));  // grad norm 1.0
  loss.backward();
  opt.clip_grad_norm(5.0);
  EXPECT_NEAR(x.grad()[0], 0.6, 1e-12);
  EXPECT_NEAR(x.grad()[1], 0.8, 1e-12);
}

TEST(Adam, ClipRejectsNonPositive) {
  Tensor x = Tensor::from({1.0}, 1, 1, true);
  Adam opt{{x}, 0.1};
  EXPECT_THROW(opt.clip_grad_norm(0.0), std::invalid_argument);
}

TEST(Adam, TrainsLinearRegression) {
  util::Rng rng{42};
  // y = x * w_true, learn w.
  Linear model{4, 1, rng};
  Adam opt{model.parameters(), 0.05};
  const std::vector<double> w_true{1.0, -2.0, 0.5, 3.0};
  double final_loss = 1e9;
  for (int step = 0; step < 400; ++step) {
    const Tensor x = Tensor::randn(8, 4, rng, 1.0);
    std::vector<double> y(8, 0.0);
    for (int i = 0; i < 8; ++i) {
      for (int j = 0; j < 4; ++j) y[i] += x.at(i, j) * w_true[j];
    }
    const Tensor target = Tensor::from(std::move(y), 8, 1);
    opt.zero_grad();
    Tensor diff = sub(model.forward(x), target);
    Tensor loss = mean(mul(diff, diff));
    loss.backward();
    opt.step();
    final_loss = loss.item();
  }
  EXPECT_LT(final_loss, 1e-3);
}

}  // namespace
}  // namespace vpr::nn
