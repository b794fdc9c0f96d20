#pragma once
// Adam (Kingma & Ba; beta1 0.9, beta2 0.999, eps 1e-8) over Tensor
// parameter handles. Parameters are registered once; step() consumes the
// gradients accumulated since the last zero_grad().

#include <vector>

#include "nn/tensor.h"

namespace vpr::nn {

class Adam {
 public:
  Adam(std::vector<Tensor> params, double lr);

  void step();
  void zero_grad() {
    for (auto& p : params_) p.zero_grad();
  }
  /// Scale all gradients so the global L2 norm is at most max_norm.
  /// Returns the pre-clip norm.
  double clip_grad_norm(double max_norm);

 private:
  std::vector<Tensor> params_;
  double lr_;
  long t_ = 0;
  std::vector<std::vector<double>> m_;
  std::vector<std::vector<double>> v_;
};

}  // namespace vpr::nn
