#pragma once
// Row-wise helpers for the tape-free inference path. Each helper replicates
// the corresponding tensor.cpp op's arithmetic *in the same order* (single
// accumulator, ascending index), so module `infer*` methods produce values
// bitwise identical to the autograd forward. That identity is what lets
// `RecipeModel::log_prob` / `step_probs` and `DecodeSession::step_batch`
// route through the fast path without perturbing beam-search output or
// training metrics.

#include <cmath>

namespace vpr::nn::infer {

/// In-place row softmax, same order as tensor.cpp softmax_rows:
/// max, exp(x - max) accumulating the denominator ascending, then divide.
void softmax_row(double* row, int n);

/// LayerNorm of one row, same order as tensor.cpp layernorm_rows:
/// mu = sum/n; var = sum((x-mu)^2)/n; is = 1/sqrt(var+eps);
/// out = gain * (x-mu)*is + bias. `out` may alias `x`.
void layernorm_row(const double* x, const double* gain, const double* bias,
                   double* out, int n, double eps = 1e-5);

/// Numerically stable sigmoid, matching tensor.cpp / RecipeModel exactly.
[[nodiscard]] inline double stable_sigmoid(double z) {
  return z >= 0.0 ? 1.0 / (1.0 + std::exp(-z))
                  : std::exp(z) / (1.0 + std::exp(z));
}

/// log(sigmoid(x)) = min(x, 0) - log1p(exp(-|x|)), matching tensor.cpp.
[[nodiscard]] inline double logsigmoid_value(double x) {
  return std::min(x, 0.0) - std::log1p(std::exp(-std::fabs(x)));
}

/// ReLU matching tensor.cpp (strict > 0 test).
[[nodiscard]] inline double relu_value(double x) { return x > 0.0 ? x : 0.0; }

}  // namespace vpr::nn::infer
