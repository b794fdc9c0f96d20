#include "nn/optim.h"

#include <cmath>
#include <stdexcept>

#include "obs/trace.h"

namespace vpr::nn {

namespace {

constexpr double kBeta1 = 0.9;
constexpr double kBeta2 = 0.999;
constexpr double kEps = 1e-8;

}  // namespace

Adam::Adam(std::vector<Tensor> params, double lr)
    : params_(std::move(params)), lr_(lr) {
  m_.reserve(params_.size());
  v_.reserve(params_.size());
  for (const auto& p : params_) {
    m_.emplace_back(p.size(), 0.0);
    v_.emplace_back(p.size(), 0.0);
  }
}

double Adam::clip_grad_norm(double max_norm) {
  if (max_norm <= 0.0) throw std::invalid_argument("clip_grad_norm: max <= 0");
  double sq = 0.0;
  for (auto& p : params_) {
    for (const double g : p.grad()) sq += g * g;
  }
  const double norm = std::sqrt(sq);
  if (norm > max_norm && norm > 0.0) {
    const double factor = max_norm / norm;
    for (auto& p : params_) {
      for (auto& g : p.grad()) g *= factor;
    }
  }
  return norm;
}

void Adam::step() {
  VPR_TRACE_SPAN("nn.adam.step", "train");
  ++t_;
  const double bc1 = 1.0 - std::pow(kBeta1, static_cast<double>(t_));
  const double bc2 = 1.0 - std::pow(kBeta2, static_cast<double>(t_));
  for (std::size_t i = 0; i < params_.size(); ++i) {
    auto data = params_[i].data();
    auto grad = params_[i].grad();
    auto& m = m_[i];
    auto& v = v_[i];
    for (std::size_t j = 0; j < data.size(); ++j) {
      const double g = grad[j];
      m[j] = kBeta1 * m[j] + (1.0 - kBeta1) * g;
      v[j] = kBeta2 * v[j] + (1.0 - kBeta2) * g * g;
      const double mhat = m[j] / bc1;
      const double vhat = v[j] / bc2;
      data[j] -= lr_ * (mhat / (std::sqrt(vhat) + kEps));
    }
  }
}

}  // namespace vpr::nn
