#include "nn/tensor.h"

#include <algorithm>

#include "nn/kernels.h"
#include <cmath>
#include <stdexcept>
#include <string>
#include <unordered_set>

namespace vpr::nn {

namespace detail {

struct TensorImpl {
  int rows = 0;
  int cols = 0;
  std::vector<double> value;
  std::vector<double> grad;
  bool requires_grad = false;
  std::vector<std::shared_ptr<TensorImpl>> parents;
  std::function<void()> backward_fn;

  [[nodiscard]] std::size_t size() const noexcept { return value.size(); }

  void ensure_grad() {
    if (grad.size() != value.size()) grad.assign(value.size(), 0.0);
  }
};

}  // namespace detail

using detail::TensorImpl;

namespace {

std::shared_ptr<TensorImpl> make_impl(int rows, int cols) {
  if (rows < 0 || cols < 0) throw std::invalid_argument("negative tensor shape");
  auto impl = std::make_shared<TensorImpl>();
  impl->rows = rows;
  impl->cols = cols;
  impl->value.assign(static_cast<std::size_t>(rows) * cols, 0.0);
  return impl;
}

/// Result node whose requires_grad is inherited from parents.
std::shared_ptr<TensorImpl> make_result(
    int rows, int cols, std::vector<std::shared_ptr<TensorImpl>> parents) {
  auto impl = make_impl(rows, cols);
  for (const auto& p : parents) {
    if (p && p->requires_grad) impl->requires_grad = true;
  }
  impl->parents = std::move(parents);
  if (impl->requires_grad) impl->ensure_grad();
  return impl;
}

const std::shared_ptr<TensorImpl>& checked(const Tensor& t) {
  if (!t.defined()) throw std::invalid_argument("undefined tensor");
  return t.impl();
}

void check_same_shape(const TensorImpl& a, const TensorImpl& b,
                      const char* op) {
  if (a.rows != b.rows || a.cols != b.cols) {
    throw std::invalid_argument(std::string(op) + ": shape mismatch (" +
                                std::to_string(a.rows) + "x" +
                                std::to_string(a.cols) + " vs " +
                                std::to_string(b.rows) + "x" +
                                std::to_string(b.cols) + ")");
  }
}

/// Shared implementation for elementwise unary ops.
/// fwd(x) -> y; dfdx(x, y) -> local derivative.
template <typename Fwd, typename Dfdx>
Tensor unary_op(const Tensor& t, Fwd fwd, Dfdx dfdx) {
  auto a = checked(t);
  auto out = make_result(a->rows, a->cols, {a});
  for (std::size_t i = 0; i < a->size(); ++i) out->value[i] = fwd(a->value[i]);
  if (out->requires_grad) {
    auto out_w = std::weak_ptr<TensorImpl>(out);
    out->backward_fn = [a, out_w, dfdx] {
      auto out_s = out_w.lock();
      if (!out_s || !a->requires_grad) return;
      a->ensure_grad();
      for (std::size_t i = 0; i < a->size(); ++i) {
        a->grad[i] += out_s->grad[i] * dfdx(a->value[i], out_s->value[i]);
      }
    };
  }
  return Tensor{out};
}

}  // namespace

// ----- Tensor basics -----

Tensor::Tensor() = default;

Tensor Tensor::zeros(int rows, int cols, bool requires_grad) {
  auto impl = make_impl(rows, cols);
  impl->requires_grad = requires_grad;
  if (requires_grad) impl->ensure_grad();
  return Tensor{std::move(impl)};
}

Tensor Tensor::full(int rows, int cols, double value, bool requires_grad) {
  Tensor t = zeros(rows, cols, requires_grad);
  std::fill(t.impl()->value.begin(), t.impl()->value.end(), value);
  return t;
}

Tensor Tensor::from(std::vector<double> data, int rows, int cols,
                    bool requires_grad) {
  if (data.size() != static_cast<std::size_t>(rows) * cols) {
    throw std::invalid_argument("Tensor::from: data size does not match shape");
  }
  Tensor t = zeros(rows, cols, requires_grad);
  t.impl()->value = std::move(data);
  return t;
}

namespace {
thread_local bool g_defer_parameter_init = false;
}  // namespace

DeferParameterInit::DeferParameterInit() noexcept
    : prev_(g_defer_parameter_init) {
  g_defer_parameter_init = true;
}

DeferParameterInit::~DeferParameterInit() {
  g_defer_parameter_init = prev_;
}

bool DeferParameterInit::active() noexcept { return g_defer_parameter_init; }

Tensor Tensor::randn(int rows, int cols, util::Rng& rng, double scale,
                     bool requires_grad) {
  Tensor t = zeros(rows, cols, requires_grad);
  if (!DeferParameterInit::active()) {
    for (auto& v : t.impl()->value) v = rng.normal(0.0, scale);
  }
  return t;
}

Tensor Tensor::scalar(double value, bool requires_grad) {
  return full(1, 1, value, requires_grad);
}

int Tensor::rows() const noexcept { return impl_ ? impl_->rows : 0; }
int Tensor::cols() const noexcept { return impl_ ? impl_->cols : 0; }
std::size_t Tensor::size() const noexcept { return impl_ ? impl_->size() : 0; }

double Tensor::at(int r, int c) const {
  const auto& impl = *checked(*this);
  if (r < 0 || r >= impl.rows || c < 0 || c >= impl.cols) {
    throw std::out_of_range("Tensor::at");
  }
  return impl.value[static_cast<std::size_t>(r) * impl.cols + c];
}

double Tensor::item() const {
  const auto& impl = *checked(*this);
  if (impl.size() != 1) throw std::invalid_argument("Tensor::item: not 1x1");
  return impl.value[0];
}

std::span<double> Tensor::data() { return checked(*this)->value; }
std::span<const double> Tensor::data() const { return checked(*this)->value; }

bool Tensor::requires_grad() const noexcept {
  return impl_ && impl_->requires_grad;
}

std::span<double> Tensor::grad() {
  auto impl = checked(*this);
  impl->ensure_grad();
  return impl->grad;
}

std::span<const double> Tensor::grad() const {
  auto impl = checked(*this);
  impl->ensure_grad();
  return impl->grad;
}

void Tensor::zero_grad() {
  auto impl = checked(*this);
  impl->ensure_grad();
  std::fill(impl->grad.begin(), impl->grad.end(), 0.0);
}

void Tensor::backward() {
  auto root = checked(*this);
  if (root->size() != 1) {
    throw std::invalid_argument("backward() requires a 1x1 tensor");
  }
  // Iterative post-order DFS to build a topological ordering.
  std::vector<TensorImpl*> topo;
  std::unordered_set<TensorImpl*> visited;
  struct Frame {
    TensorImpl* node;
    std::size_t next_parent;
  };
  std::vector<Frame> stack;
  stack.push_back({root.get(), 0});
  visited.insert(root.get());
  while (!stack.empty()) {
    Frame& frame = stack.back();
    if (frame.next_parent < frame.node->parents.size()) {
      TensorImpl* parent = frame.node->parents[frame.next_parent++].get();
      if (parent && !visited.contains(parent)) {
        visited.insert(parent);
        stack.push_back({parent, 0});
      }
    } else {
      topo.push_back(frame.node);
      stack.pop_back();
    }
  }
  root->ensure_grad();
  root->grad[0] += 1.0;
  for (auto it = topo.rbegin(); it != topo.rend(); ++it) {
    if ((*it)->backward_fn) (*it)->backward_fn();
  }
}

Tensor Tensor::detach() const {
  const auto& impl = *checked(*this);
  return Tensor::from(impl.value, impl.rows, impl.cols, false);
}

// ----- Binary elementwise -----

Tensor add(const Tensor& ta, const Tensor& tb) {
  auto a = checked(ta);
  auto b = checked(tb);
  check_same_shape(*a, *b, "add");
  auto out = make_result(a->rows, a->cols, {a, b});
  for (std::size_t i = 0; i < a->size(); ++i) {
    out->value[i] = a->value[i] + b->value[i];
  }
  if (out->requires_grad) {
    auto out_w = std::weak_ptr<TensorImpl>(out);
    out->backward_fn = [a, b, out_w] {
      auto o = out_w.lock();
      if (!o) return;
      if (a->requires_grad) {
        a->ensure_grad();
        for (std::size_t i = 0; i < a->size(); ++i) a->grad[i] += o->grad[i];
      }
      if (b->requires_grad) {
        b->ensure_grad();
        for (std::size_t i = 0; i < b->size(); ++i) b->grad[i] += o->grad[i];
      }
    };
  }
  return Tensor{out};
}

Tensor sub(const Tensor& ta, const Tensor& tb) {
  auto a = checked(ta);
  auto b = checked(tb);
  check_same_shape(*a, *b, "sub");
  auto out = make_result(a->rows, a->cols, {a, b});
  for (std::size_t i = 0; i < a->size(); ++i) {
    out->value[i] = a->value[i] - b->value[i];
  }
  if (out->requires_grad) {
    auto out_w = std::weak_ptr<TensorImpl>(out);
    out->backward_fn = [a, b, out_w] {
      auto o = out_w.lock();
      if (!o) return;
      if (a->requires_grad) {
        a->ensure_grad();
        for (std::size_t i = 0; i < a->size(); ++i) a->grad[i] += o->grad[i];
      }
      if (b->requires_grad) {
        b->ensure_grad();
        for (std::size_t i = 0; i < b->size(); ++i) b->grad[i] -= o->grad[i];
      }
    };
  }
  return Tensor{out};
}

Tensor mul(const Tensor& ta, const Tensor& tb) {
  auto a = checked(ta);
  auto b = checked(tb);
  check_same_shape(*a, *b, "mul");
  auto out = make_result(a->rows, a->cols, {a, b});
  for (std::size_t i = 0; i < a->size(); ++i) {
    out->value[i] = a->value[i] * b->value[i];
  }
  if (out->requires_grad) {
    auto out_w = std::weak_ptr<TensorImpl>(out);
    out->backward_fn = [a, b, out_w] {
      auto o = out_w.lock();
      if (!o) return;
      if (a->requires_grad) {
        a->ensure_grad();
        for (std::size_t i = 0; i < a->size(); ++i) {
          a->grad[i] += o->grad[i] * b->value[i];
        }
      }
      if (b->requires_grad) {
        b->ensure_grad();
        for (std::size_t i = 0; i < b->size(); ++i) {
          b->grad[i] += o->grad[i] * a->value[i];
        }
      }
    };
  }
  return Tensor{out};
}

Tensor minimum(const Tensor& ta, const Tensor& tb) {
  auto a = checked(ta);
  auto b = checked(tb);
  check_same_shape(*a, *b, "minimum");
  auto out = make_result(a->rows, a->cols, {a, b});
  for (std::size_t i = 0; i < a->size(); ++i) {
    out->value[i] = std::min(a->value[i], b->value[i]);
  }
  if (out->requires_grad) {
    auto out_w = std::weak_ptr<TensorImpl>(out);
    out->backward_fn = [a, b, out_w] {
      auto o = out_w.lock();
      if (!o) return;
      for (std::size_t i = 0; i < a->size(); ++i) {
        // Ties route the gradient to the first argument.
        if (a->value[i] <= b->value[i]) {
          if (a->requires_grad) {
            a->ensure_grad();
            a->grad[i] += o->grad[i];
          }
        } else if (b->requires_grad) {
          b->ensure_grad();
          b->grad[i] += o->grad[i];
        }
      }
    };
  }
  return Tensor{out};
}

Tensor add_row(const Tensor& tm, const Tensor& tr) {
  auto m = checked(tm);
  auto r = checked(tr);
  if (r->rows != 1 || r->cols != m->cols) {
    throw std::invalid_argument("add_row: row must be 1 x matrix.cols");
  }
  auto out = make_result(m->rows, m->cols, {m, r});
  for (int i = 0; i < m->rows; ++i) {
    for (int j = 0; j < m->cols; ++j) {
      const std::size_t idx = static_cast<std::size_t>(i) * m->cols + j;
      out->value[idx] = m->value[idx] + r->value[j];
    }
  }
  if (out->requires_grad) {
    auto out_w = std::weak_ptr<TensorImpl>(out);
    out->backward_fn = [m, r, out_w] {
      auto o = out_w.lock();
      if (!o) return;
      if (m->requires_grad) {
        m->ensure_grad();
        for (std::size_t i = 0; i < m->size(); ++i) m->grad[i] += o->grad[i];
      }
      if (r->requires_grad) {
        r->ensure_grad();
        for (int i = 0; i < m->rows; ++i) {
          for (int j = 0; j < m->cols; ++j) {
            r->grad[j] += o->grad[static_cast<std::size_t>(i) * m->cols + j];
          }
        }
      }
    };
  }
  return Tensor{out};
}

// ----- Unary elementwise -----

Tensor scale(const Tensor& a, double s) {
  return unary_op(
      a, [s](double x) { return x * s; },
      [s](double, double) { return s; });
}

Tensor add_scalar(const Tensor& a, double s) {
  return unary_op(
      a, [s](double x) { return x + s; }, [](double, double) { return 1.0; });
}

Tensor neg(const Tensor& a) { return scale(a, -1.0); }

Tensor relu(const Tensor& a) {
  return unary_op(
      a, [](double x) { return x > 0.0 ? x : 0.0; },
      [](double x, double) { return x > 0.0 ? 1.0 : 0.0; });
}

Tensor sigmoid(const Tensor& a) {
  return unary_op(
      a,
      [](double x) {
        return x >= 0.0 ? 1.0 / (1.0 + std::exp(-x))
                        : std::exp(x) / (1.0 + std::exp(x));
      },
      [](double, double y) { return y * (1.0 - y); });
}

Tensor logsigmoid(const Tensor& a) {
  // log(sigmoid(x)) = -log(1 + exp(-x)) = min(x, 0) - log1p(exp(-|x|))
  return unary_op(
      a,
      [](double x) {
        return std::min(x, 0.0) - std::log1p(std::exp(-std::fabs(x)));
      },
      [](double x, double) {
        // d/dx log(sigmoid(x)) = sigmoid(-x)
        return x >= 0.0 ? std::exp(-x) / (1.0 + std::exp(-x))
                        : 1.0 / (1.0 + std::exp(x));
      });
}

Tensor tanh_op(const Tensor& a) {
  return unary_op(
      a, [](double x) { return std::tanh(x); },
      [](double, double y) { return 1.0 - y * y; });
}

Tensor exp_op(const Tensor& a) {
  return unary_op(
      a, [](double x) { return std::exp(x); },
      [](double, double y) { return y; });
}

Tensor log_op(const Tensor& a) {
  return unary_op(
      a,
      [](double x) {
        if (x <= 0.0) throw std::domain_error("log_op: non-positive input");
        return std::log(x);
      },
      [](double x, double) { return 1.0 / x; });
}

Tensor clamp(const Tensor& a, double lo, double hi) {
  if (lo > hi) throw std::invalid_argument("clamp: lo > hi");
  return unary_op(
      a, [lo, hi](double x) { return std::clamp(x, lo, hi); },
      [lo, hi](double x, double) { return (x >= lo && x <= hi) ? 1.0 : 0.0; });
}

// ----- Matrix ops -----

Tensor matmul(const Tensor& ta, const Tensor& tb) {
  auto a = checked(ta);
  auto b = checked(tb);
  if (a->cols != b->rows) {
    throw std::invalid_argument("matmul: inner dimension mismatch");
  }
  const int m = a->rows;
  const int k = a->cols;
  const int n = b->cols;
  auto out = make_result(m, n, {a, b});
  kern::matmul(a->value.data(), b->value.data(), out->value.data(), m, k, n);
  if (out->requires_grad) {
    auto out_w = std::weak_ptr<TensorImpl>(out);
    out->backward_fn = [a, b, out_w, m, k, n] {
      auto o = out_w.lock();
      if (!o) return;
      if (a->requires_grad) {
        a->ensure_grad();
        // dA = dC * B^T
        kern::matmul_nt_acc(o->grad.data(), b->value.data(), a->grad.data(),
                            m, n, k);
      }
      if (b->requires_grad) {
        b->ensure_grad();
        // dB = A^T * dC
        kern::matmul_tn_acc(a->value.data(), o->grad.data(), b->grad.data(),
                            m, k, n);
      }
    };
  }
  return Tensor{out};
}

Tensor transpose(const Tensor& ta) {
  auto a = checked(ta);
  auto out = make_result(a->cols, a->rows, {a});
  for (int i = 0; i < a->rows; ++i) {
    for (int j = 0; j < a->cols; ++j) {
      out->value[static_cast<std::size_t>(j) * a->rows + i] =
          a->value[static_cast<std::size_t>(i) * a->cols + j];
    }
  }
  if (out->requires_grad) {
    auto out_w = std::weak_ptr<TensorImpl>(out);
    out->backward_fn = [a, out_w] {
      auto o = out_w.lock();
      if (!o || !a->requires_grad) return;
      a->ensure_grad();
      for (int i = 0; i < a->rows; ++i) {
        for (int j = 0; j < a->cols; ++j) {
          a->grad[static_cast<std::size_t>(i) * a->cols + j] +=
              o->grad[static_cast<std::size_t>(j) * a->rows + i];
        }
      }
    };
  }
  return Tensor{out};
}

Tensor softmax_rows(const Tensor& ta) {
  auto a = checked(ta);
  auto out = make_result(a->rows, a->cols, {a});
  for (int i = 0; i < a->rows; ++i) {
    const std::size_t row = static_cast<std::size_t>(i) * a->cols;
    double mx = a->value[row];
    for (int j = 1; j < a->cols; ++j) mx = std::max(mx, a->value[row + j]);
    double denom = 0.0;
    for (int j = 0; j < a->cols; ++j) {
      out->value[row + j] = std::exp(a->value[row + j] - mx);
      denom += out->value[row + j];
    }
    for (int j = 0; j < a->cols; ++j) out->value[row + j] /= denom;
  }
  if (out->requires_grad) {
    auto out_w = std::weak_ptr<TensorImpl>(out);
    out->backward_fn = [a, out_w] {
      auto o = out_w.lock();
      if (!o || !a->requires_grad) return;
      a->ensure_grad();
      for (int i = 0; i < a->rows; ++i) {
        const std::size_t row = static_cast<std::size_t>(i) * a->cols;
        double dot = 0.0;
        for (int j = 0; j < a->cols; ++j) {
          dot += o->grad[row + j] * o->value[row + j];
        }
        for (int j = 0; j < a->cols; ++j) {
          a->grad[row + j] += o->value[row + j] * (o->grad[row + j] - dot);
        }
      }
    };
  }
  return Tensor{out};
}

Tensor layernorm_rows(const Tensor& tx, const Tensor& tgain,
                      const Tensor& tbias, double eps) {
  auto x = checked(tx);
  auto g = checked(tgain);
  auto b = checked(tbias);
  if (g->rows != 1 || g->cols != x->cols || b->rows != 1 ||
      b->cols != x->cols) {
    throw std::invalid_argument("layernorm_rows: gain/bias must be 1 x cols");
  }
  const int rows = x->rows;
  const int cols = x->cols;
  auto out = make_result(rows, cols, {x, g, b});
  // Cache per-row (1/sigma) and normalized values for the backward pass.
  auto inv_sigma = std::make_shared<std::vector<double>>(rows, 0.0);
  auto xhat = std::make_shared<std::vector<double>>(out->value.size(), 0.0);
  for (int i = 0; i < rows; ++i) {
    const std::size_t row = static_cast<std::size_t>(i) * cols;
    double mu = 0.0;
    for (int j = 0; j < cols; ++j) mu += x->value[row + j];
    mu /= cols;
    double var = 0.0;
    for (int j = 0; j < cols; ++j) {
      const double d = x->value[row + j] - mu;
      var += d * d;
    }
    var /= cols;
    const double is = 1.0 / std::sqrt(var + eps);
    (*inv_sigma)[i] = is;
    for (int j = 0; j < cols; ++j) {
      const double xh = (x->value[row + j] - mu) * is;
      (*xhat)[row + j] = xh;
      out->value[row + j] = g->value[j] * xh + b->value[j];
    }
  }
  if (out->requires_grad) {
    auto out_w = std::weak_ptr<TensorImpl>(out);
    out->backward_fn = [x, g, b, out_w, inv_sigma, xhat, rows, cols] {
      auto o = out_w.lock();
      if (!o) return;
      for (int i = 0; i < rows; ++i) {
        const std::size_t row = static_cast<std::size_t>(i) * cols;
        if (g->requires_grad) {
          g->ensure_grad();
          for (int j = 0; j < cols; ++j) {
            g->grad[j] += o->grad[row + j] * (*xhat)[row + j];
          }
        }
        if (b->requires_grad) {
          b->ensure_grad();
          for (int j = 0; j < cols; ++j) b->grad[j] += o->grad[row + j];
        }
        if (x->requires_grad) {
          x->ensure_grad();
          // dxhat_j = dy_j * g_j; dx = (dxhat - mean(dxhat)
          //   - xhat * mean(dxhat * xhat)) / sigma
          double mean_dxhat = 0.0;
          double mean_dxhat_xhat = 0.0;
          for (int j = 0; j < cols; ++j) {
            const double dxh = o->grad[row + j] * g->value[j];
            mean_dxhat += dxh;
            mean_dxhat_xhat += dxh * (*xhat)[row + j];
          }
          mean_dxhat /= cols;
          mean_dxhat_xhat /= cols;
          for (int j = 0; j < cols; ++j) {
            const double dxh = o->grad[row + j] * g->value[j];
            x->grad[row + j] += (*inv_sigma)[i] *
                                (dxh - mean_dxhat -
                                 (*xhat)[row + j] * mean_dxhat_xhat);
          }
        }
      }
    };
  }
  return Tensor{out};
}

// ----- Reductions / reshaping -----

Tensor sum(const Tensor& ta) {
  auto a = checked(ta);
  auto out = make_result(1, 1, {a});
  double acc = 0.0;
  for (const double v : a->value) acc += v;
  out->value[0] = acc;
  if (out->requires_grad) {
    auto out_w = std::weak_ptr<TensorImpl>(out);
    out->backward_fn = [a, out_w] {
      auto o = out_w.lock();
      if (!o || !a->requires_grad) return;
      a->ensure_grad();
      for (std::size_t i = 0; i < a->size(); ++i) a->grad[i] += o->grad[0];
    };
  }
  return Tensor{out};
}

Tensor mean(const Tensor& ta) {
  const auto n = static_cast<double>(checked(ta)->size());
  if (n == 0.0) throw std::invalid_argument("mean of empty tensor");
  return scale(sum(ta), 1.0 / n);
}

Tensor slice_rows(const Tensor& ta, int start, int count) {
  auto a = checked(ta);
  if (start < 0 || count < 0 || start + count > a->rows) {
    throw std::out_of_range("slice_rows");
  }
  auto out = make_result(count, a->cols, {a});
  const std::size_t offset = static_cast<std::size_t>(start) * a->cols;
  std::copy_n(a->value.begin() + static_cast<std::ptrdiff_t>(offset),
              static_cast<std::size_t>(count) * a->cols, out->value.begin());
  if (out->requires_grad) {
    auto out_w = std::weak_ptr<TensorImpl>(out);
    out->backward_fn = [a, out_w, offset] {
      auto o = out_w.lock();
      if (!o || !a->requires_grad) return;
      a->ensure_grad();
      for (std::size_t i = 0; i < o->size(); ++i) {
        a->grad[offset + i] += o->grad[i];
      }
    };
  }
  return Tensor{out};
}

Tensor concat_rows(const std::vector<Tensor>& parts) {
  if (parts.empty()) throw std::invalid_argument("concat_rows: empty");
  std::vector<std::shared_ptr<TensorImpl>> impls;
  impls.reserve(parts.size());
  int rows = 0;
  const int cols = checked(parts.front())->cols;
  for (const auto& p : parts) {
    auto impl = checked(p);
    if (impl->cols != cols) {
      throw std::invalid_argument("concat_rows: column mismatch");
    }
    rows += impl->rows;
    impls.push_back(impl);
  }
  auto out = make_result(rows, cols, impls);
  std::size_t offset = 0;
  for (const auto& impl : impls) {
    std::copy(impl->value.begin(), impl->value.end(),
              out->value.begin() + static_cast<std::ptrdiff_t>(offset));
    offset += impl->size();
  }
  if (out->requires_grad) {
    auto out_w = std::weak_ptr<TensorImpl>(out);
    out->backward_fn = [impls, out_w] {
      auto o = out_w.lock();
      if (!o) return;
      std::size_t off = 0;
      for (const auto& impl : impls) {
        if (impl->requires_grad) {
          impl->ensure_grad();
          for (std::size_t i = 0; i < impl->size(); ++i) {
            impl->grad[i] += o->grad[off + i];
          }
        }
        off += impl->size();
      }
    };
  }
  return Tensor{out};
}

Tensor gather_rows(const Tensor& ttable, const std::vector<int>& indices) {
  auto table = checked(ttable);
  auto out = make_result(static_cast<int>(indices.size()), table->cols,
                         {table});
  for (std::size_t i = 0; i < indices.size(); ++i) {
    const int idx = indices[i];
    if (idx < 0 || idx >= table->rows) {
      throw std::out_of_range("gather_rows: index out of range");
    }
    std::copy_n(table->value.begin() +
                    static_cast<std::ptrdiff_t>(idx) * table->cols,
                table->cols,
                out->value.begin() + static_cast<std::ptrdiff_t>(i) *
                                         table->cols);
  }
  if (out->requires_grad) {
    auto out_w = std::weak_ptr<TensorImpl>(out);
    auto idx_copy = std::make_shared<std::vector<int>>(indices);
    out->backward_fn = [table, out_w, idx_copy] {
      auto o = out_w.lock();
      if (!o || !table->requires_grad) return;
      table->ensure_grad();
      const int cols = table->cols;
      for (std::size_t i = 0; i < idx_copy->size(); ++i) {
        const std::size_t src = i * cols;
        const std::size_t dst =
            static_cast<std::size_t>((*idx_copy)[i]) * cols;
        for (int j = 0; j < cols; ++j) {
          table->grad[dst + j] += o->grad[src + j];
        }
      }
    };
  }
  return Tensor{out};
}

}  // namespace vpr::nn
