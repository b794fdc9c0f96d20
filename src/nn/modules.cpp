#include "nn/modules.h"

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <istream>
#include <ostream>
#include <stdexcept>

#include "nn/infer.h"
#include "nn/kernels.h"

namespace vpr::nn {

namespace {
/// Xavier/Glorot scale for a (fan_in, fan_out) weight.
double glorot(int fan_in, int fan_out) {
  return std::sqrt(2.0 / static_cast<double>(fan_in + fan_out));
}
}  // namespace

// ----- Module -----

std::vector<double> Module::state() const {
  std::vector<double> out;
  for (const auto& p : parameters()) {
    const auto d = p.data();
    out.insert(out.end(), d.begin(), d.end());
  }
  return out;
}

void Module::load_state(std::span<const double> state) {
  std::size_t offset = 0;
  for (auto p : parameters()) {
    auto dst = p.data();
    if (offset + dst.size() > state.size()) {
      throw std::invalid_argument("load_state: snapshot too small");
    }
    std::copy_n(state.begin() + static_cast<std::ptrdiff_t>(offset),
                dst.size(), dst.begin());
    offset += dst.size();
  }
  if (offset != state.size()) {
    throw std::invalid_argument("load_state: snapshot size mismatch");
  }
}

std::vector<double> Module::gradients() const {
  std::vector<double> out;
  for (const auto& p : parameters()) {
    const auto g = p.grad();
    if (g.empty()) {
      out.insert(out.end(), p.size(), 0.0);
    } else {
      out.insert(out.end(), g.begin(), g.end());
    }
  }
  return out;
}

void Module::accumulate_gradients(std::span<const double> grads) {
  std::size_t offset = 0;
  for (auto p : parameters()) {
    auto dst = p.grad();
    if (offset + dst.size() > grads.size()) {
      throw std::invalid_argument("accumulate_gradients: snapshot too small");
    }
    for (std::size_t i = 0; i < dst.size(); ++i) {
      dst[i] += grads[offset + i];
    }
    offset += dst.size();
  }
  if (offset != grads.size()) {
    throw std::invalid_argument("accumulate_gradients: size mismatch");
  }
}

void Module::save(std::ostream& os) const {
  const auto s = state();
  const auto n = static_cast<std::uint64_t>(s.size());
  os.write(reinterpret_cast<const char*>(&n), sizeof(n));
  os.write(reinterpret_cast<const char*>(s.data()),
           static_cast<std::streamsize>(s.size() * sizeof(double)));
  if (!os) throw std::runtime_error("Module::save: stream write failed");
}

void Module::load(std::istream& is) {
  std::uint64_t n = 0;
  is.read(reinterpret_cast<char*>(&n), sizeof(n));
  std::vector<double> s(n);
  is.read(reinterpret_cast<char*>(s.data()),
          static_cast<std::streamsize>(n * sizeof(double)));
  if (!is) throw std::runtime_error("Module::load: stream read failed");
  load_state(s);
}

// ----- Linear -----

Linear::Linear(int in_features, int out_features, util::Rng& rng)
    : in_(in_features),
      out_(out_features),
      weight_(Tensor::randn(in_features, out_features, rng,
                            glorot(in_features, out_features),
                            /*requires_grad=*/true)),
      bias_(Tensor::zeros(1, out_features, /*requires_grad=*/true)) {
  if (in_features <= 0 || out_features <= 0) {
    throw std::invalid_argument("Linear: non-positive dimensions");
  }
}

Tensor Linear::forward(const Tensor& x) const {
  return add_row(matmul(x, weight_), bias_);
}

void Linear::infer(const double* x, int rows, double* out) const {
  kern::matmul(x, weight_.data().data(), out, rows, in_, out_);
  const double* b = bias_.data().data();
  for (int i = 0; i < rows; ++i) {
    double* row = out + static_cast<std::size_t>(i) * out_;
    for (int j = 0; j < out_; ++j) row[j] = row[j] + b[j];
  }
}

std::vector<Tensor> Linear::parameters() const { return {weight_, bias_}; }

// ----- Embedding -----

Embedding::Embedding(int num_embeddings, int dim, util::Rng& rng)
    : num_(num_embeddings),
      dim_(dim),
      table_(Tensor::randn(num_embeddings, dim, rng, 0.1,
                           /*requires_grad=*/true)) {
  if (num_embeddings <= 0 || dim <= 0) {
    throw std::invalid_argument("Embedding: non-positive dimensions");
  }
}

Tensor Embedding::forward(const std::vector<int>& ids) const {
  return gather_rows(table_, ids);
}

void Embedding::infer_row(int id, double* out) const {
  if (id < 0 || id >= num_) {
    throw std::out_of_range("Embedding::infer_row: id out of range");
  }
  const double* row =
      table_.data().data() + static_cast<std::size_t>(id) * dim_;
  std::copy_n(row, dim_, out);
}

std::vector<Tensor> Embedding::parameters() const { return {table_}; }

// ----- PositionalEncoding -----

PositionalEncoding::PositionalEncoding(int max_len, int dim, util::Rng& rng)
    : max_len_(max_len),
      dim_(dim),
      table_(Tensor::randn(max_len, dim, rng, 0.1, /*requires_grad=*/true)) {
  if (max_len <= 0 || dim <= 0) {
    throw std::invalid_argument("PositionalEncoding: non-positive dimensions");
  }
}

Tensor PositionalEncoding::forward(const Tensor& x) const {
  if (x.rows() > max_len_ || x.cols() != dim_) {
    throw std::invalid_argument("PositionalEncoding: input shape mismatch");
  }
  return add(x, slice_rows(table_, 0, x.rows()));
}

void PositionalEncoding::infer_add_row(int pos, double* x) const {
  if (pos < 0 || pos >= max_len_) {
    throw std::out_of_range("PositionalEncoding: position out of range");
  }
  const double* row =
      table_.data().data() + static_cast<std::size_t>(pos) * dim_;
  for (int j = 0; j < dim_; ++j) x[j] = x[j] + row[j];
}

std::vector<Tensor> PositionalEncoding::parameters() const { return {table_}; }

// ----- LayerNorm -----

LayerNorm::LayerNorm(int dim)
    : gain_(Tensor::full(1, dim, 1.0, /*requires_grad=*/true)),
      bias_(Tensor::zeros(1, dim, /*requires_grad=*/true)) {
  if (dim <= 0) throw std::invalid_argument("LayerNorm: non-positive dim");
}

Tensor LayerNorm::forward(const Tensor& x) const {
  return layernorm_rows(x, gain_, bias_);
}

void LayerNorm::infer(const double* x, int rows, double* out) const {
  const double* g = gain_.data().data();
  const double* b = bias_.data().data();
  const int cols = static_cast<int>(gain_.size());
  for (int i = 0; i < rows; ++i) {
    const std::size_t off = static_cast<std::size_t>(i) * cols;
    infer::layernorm_row(x + off, g, b, out + off, cols);
  }
}

std::vector<Tensor> LayerNorm::parameters() const { return {gain_, bias_}; }

// ----- SingleHeadAttention -----

SingleHeadAttention::SingleHeadAttention(int dim, util::Rng& rng)
    : dim_(dim),
      wq_(Tensor::randn(dim, dim, rng, glorot(dim, dim), true)),
      wk_(Tensor::randn(dim, dim, rng, glorot(dim, dim), true)),
      wv_(Tensor::randn(dim, dim, rng, glorot(dim, dim), true)),
      wo_(Tensor::randn(dim, dim, rng, glorot(dim, dim), true)) {
  if (dim <= 0) throw std::invalid_argument("Attention: non-positive dim");
}

Tensor SingleHeadAttention::forward(const Tensor& query, const Tensor& memory,
                                    bool causal) const {
  if (query.cols() != dim_ || memory.cols() != dim_) {
    throw std::invalid_argument("Attention: feature dim mismatch");
  }
  const Tensor q = matmul(query, wq_);
  const Tensor k = matmul(memory, wk_);
  const Tensor v = matmul(memory, wv_);
  Tensor scores = scale(matmul(q, transpose(k)),
                        1.0 / std::sqrt(static_cast<double>(dim_)));
  if (causal) {
    // Additive mask: -inf-ish above the diagonal. The mask tensor is a
    // constant, so it does not enter the gradient.
    constexpr double kMask = -1e9;
    std::vector<double> mask(
        static_cast<std::size_t>(scores.rows()) * scores.cols(), 0.0);
    for (int i = 0; i < scores.rows(); ++i) {
      for (int j = i + 1; j < scores.cols(); ++j) {
        mask[static_cast<std::size_t>(i) * scores.cols() + j] = kMask;
      }
    }
    scores = add(scores,
                 Tensor::from(std::move(mask), scores.rows(), scores.cols()));
  }
  const Tensor attn = softmax_rows(scores);
  return matmul(matmul(attn, v), wo_);
}

void SingleHeadAttention::infer_kv(const double* x, int rows, double* k,
                                   double* v) const {
  kern::matmul(x, wk_.data().data(), k, rows, dim_, dim_);
  kern::matmul(x, wv_.data().data(), v, rows, dim_, dim_);
}

void SingleHeadAttention::infer_kv_t(const double* x, int rows, double* kt,
                                     int kt_ld, double* v) const {
  thread_local std::vector<double> k;
  thread_local std::vector<double*> cols;
  k.resize(static_cast<std::size_t>(rows) * dim_);
  cols.resize(static_cast<std::size_t>(rows));
  kern::matmul(x, wk_.data().data(), k.data(), rows, dim_, dim_);
  kern::matmul(x, wv_.data().data(), v, rows, dim_, dim_);
  // Transpose the fresh K rows into the feature-major cache: row i becomes
  // column i. A pure data movement — bitwise trivially.
  for (int i = 0; i < rows; ++i) cols[static_cast<std::size_t>(i)] = kt + i;
  kern::scatter_cols(k.data(), rows, dim_, cols.data(), kt_ld);
}

void SingleHeadAttention::infer_q(const double* x, int rows,
                                  double* q) const {
  kern::matmul(x, wq_.data().data(), q, rows, dim_, dim_);
}

void SingleHeadAttention::infer_ctx(const double* q_row, const double* kt,
                                    int kt_ld, const double* v_rows, int len,
                                    double* ctx_row) const {
  // Mirrors the tape exactly: scores = (q . k_j) * 1/sqrt(d), row softmax,
  // context = sum_j attn_j v_j (ascending j). The tape's additive -1e9
  // causal mask drives exp() to exactly 0.0 for masked columns, and adding
  // those zero terms to the softmax denominator and the context accumulator
  // leaves every bit unchanged — so attending over only the visible `len`
  // positions reproduces the masked full-row arithmetic.
  //
  // Both halves are dispatched kernels over the SoA key cache: the score
  // sweep is unit-stride across positions (attn_scores keeps the ascending
  // feature-index accumulator of the old per-row kern::dot), and the value
  // mix is the m == 1 matmul scores(1 x len) * V(len x dim) — the same
  // ascending-j summation per output feature as the old strided loop.
  const double s = 1.0 / std::sqrt(static_cast<double>(dim_));
  thread_local std::vector<double> scores;
  scores.resize(static_cast<std::size_t>(len));
  kern::attn_scores(q_row, kt, dim_, len, kt_ld, s, scores.data());
  infer::softmax_row(scores.data(), len);
  kern::matmul(scores.data(), v_rows, ctx_row, 1, len, dim_);
}

void SingleHeadAttention::infer_attend_batch(const double* q_rows, int rows,
                                             const double* const* kt,
                                             int kt_ld,
                                             const double* const* v_rows,
                                             const int* lens,
                                             double* out_rows) const {
  // The context mix is inherently per-row (ragged lens), but the Wo
  // projection of the stacked context rows is one blocked matmul; the
  // kernel's per-element summation-order invariant keeps each row bitwise
  // equal to the same row of the tape's (L x d) projection.
  thread_local std::vector<double> ctx;
  ctx.resize(static_cast<std::size_t>(rows) * dim_);
  for (int i = 0; i < rows; ++i) {
    infer_ctx(q_rows + static_cast<std::size_t>(i) * dim_, kt[i], kt_ld,
              v_rows[i], lens[i],
              ctx.data() + static_cast<std::size_t>(i) * dim_);
  }
  kern::matmul(ctx.data(), wo_.data().data(), out_rows, rows, dim_, dim_);
}

std::vector<Tensor> SingleHeadAttention::parameters() const {
  return {wq_, wk_, wv_, wo_};
}

// ----- FeedForward -----

FeedForward::FeedForward(int dim, int hidden, util::Rng& rng)
    : fc1_(dim, hidden, rng), fc2_(hidden, dim, rng) {}

Tensor FeedForward::forward(const Tensor& x) const {
  return fc2_.forward(relu(fc1_.forward(x)));
}

void FeedForward::infer(const double* x, int rows, double* out) const {
  thread_local std::vector<double> hidden;
  const int h = fc1_.out_features();
  hidden.resize(static_cast<std::size_t>(rows) * h);
  fc1_.infer(x, rows, hidden.data());
  for (double& value : hidden) value = infer::relu_value(value);
  fc2_.infer(hidden.data(), rows, out);
}

std::vector<Tensor> FeedForward::parameters() const {
  auto params = fc1_.parameters();
  const auto p2 = fc2_.parameters();
  params.insert(params.end(), p2.begin(), p2.end());
  return params;
}

// ----- TransformerDecoderLayer -----

TransformerDecoderLayer::TransformerDecoderLayer(int dim, int ffn_hidden,
                                                 util::Rng& rng)
    : self_attn_(dim, rng),
      cross_attn_(dim, rng),
      ffn_(dim, ffn_hidden, rng),
      norm1_(dim),
      norm2_(dim),
      norm3_(dim) {}

Tensor TransformerDecoderLayer::forward(const Tensor& x,
                                        const Tensor& memory) const {
  const Tensor h1 =
      norm1_.forward(add(x, self_attn_.forward(x, x, /*causal=*/true)));
  const Tensor h2 = norm2_.forward(
      add(h1, cross_attn_.forward(h1, memory, /*causal=*/false)));
  return norm3_.forward(add(h2, ffn_.forward(h2)));
}

void TransformerDecoderLayer::infer_cross_kv(const double* memory,
                                             int mem_rows, double* cross_kt,
                                             double* cross_v) const {
  cross_attn_.infer_kv_t(memory, mem_rows, cross_kt, mem_rows, cross_v);
}

void TransformerDecoderLayer::infer_step_batch(const double* x_rows, int rows,
                                               const int* pos,
                                               const RowCache* caches,
                                               int self_kt_ld, int mem_rows,
                                               double* out_rows) const {
  const int d = dim();
  const std::size_t size = static_cast<std::size_t>(rows) * d;
  thread_local std::vector<double> q;
  thread_local std::vector<double> kv_k;
  thread_local std::vector<double> kv_v;
  thread_local std::vector<double> attn;
  thread_local std::vector<double> h1;
  thread_local std::vector<double*> kv_dst;
  thread_local std::vector<const double*> att_k;
  thread_local std::vector<const double*> att_v;
  thread_local std::vector<int> lens;
  q.resize(size);
  kv_k.resize(size);
  kv_v.resize(size);
  attn.resize(size);
  h1.resize(size);
  kv_dst.resize(static_cast<std::size_t>(rows));
  att_k.resize(static_cast<std::size_t>(rows));
  att_v.resize(static_cast<std::size_t>(rows));
  lens.resize(static_cast<std::size_t>(rows));
  double** dst = kv_dst.data();

  // Self-attention: one stacked Q and K/V projection; the fresh K rows
  // scatter as column pos[i] of each lane's feature-major cache, the V
  // rows as row pos[i]. Then attend each lane over its own pos[i] + 1
  // visible positions.
  self_attn_.infer_q(x_rows, rows, q.data());
  self_attn_.infer_kv(x_rows, rows, kv_k.data(), kv_v.data());
  for (int i = 0; i < rows; ++i) {
    dst[i] = caches[i].self_kt + pos[i];
  }
  kern::scatter_cols(kv_k.data(), rows, d, dst, self_kt_ld);
  for (int i = 0; i < rows; ++i) {
    dst[i] = caches[i].self_v + static_cast<std::size_t>(pos[i]) * d;
  }
  kern::scatter_rows(kv_v.data(), rows, d, dst);
  for (int i = 0; i < rows; ++i) {
    att_k[static_cast<std::size_t>(i)] = caches[i].self_kt;
    att_v[static_cast<std::size_t>(i)] = caches[i].self_v;
    lens[static_cast<std::size_t>(i)] = pos[i] + 1;
  }
  self_attn_.infer_attend_batch(q.data(), rows, att_k.data(), self_kt_ld,
                                att_v.data(), lens.data(), attn.data());
  for (std::size_t i = 0; i < size; ++i) h1[i] = x_rows[i] + attn[i];
  norm1_.infer(h1.data(), rows, h1.data());

  // Cross-attention over each lane's precomputed memory projection.
  cross_attn_.infer_q(h1.data(), rows, q.data());
  for (int i = 0; i < rows; ++i) {
    att_k[static_cast<std::size_t>(i)] = caches[i].cross_kt;
    att_v[static_cast<std::size_t>(i)] = caches[i].cross_v;
    lens[static_cast<std::size_t>(i)] = mem_rows;
  }
  cross_attn_.infer_attend_batch(q.data(), rows, att_k.data(), mem_rows,
                                 att_v.data(), lens.data(), attn.data());
  for (std::size_t i = 0; i < size; ++i) attn[i] = h1[i] + attn[i];
  norm2_.infer(attn.data(), rows, attn.data());  // attn = h2

  // Feed-forward (already a stacked-rows path) + final residual/norm.
  ffn_.infer(attn.data(), rows, h1.data());
  for (std::size_t i = 0; i < size; ++i) out_rows[i] = attn[i] + h1[i];
  norm3_.infer(out_rows, rows, out_rows);
}

std::vector<Tensor> TransformerDecoderLayer::parameters() const {
  std::vector<Tensor> params;
  for (const Module* m :
       {static_cast<const Module*>(&self_attn_),
        static_cast<const Module*>(&cross_attn_),
        static_cast<const Module*>(&ffn_), static_cast<const Module*>(&norm1_),
        static_cast<const Module*>(&norm2_),
        static_cast<const Module*>(&norm3_)}) {
    const auto p = m->parameters();
    params.insert(params.end(), p.begin(), p.end());
  }
  return params;
}

}  // namespace vpr::nn
