#pragma once
// Neural-network building blocks for the InsightAlign recipe model
// (paper Table III). All modules expose their parameters for optimizers and
// for snapshot/restore (used by the PPO reference policy in online
// fine-tuning).

#include <memory>
#include <vector>

#include "nn/tensor.h"
#include "util/rng.h"

namespace vpr::nn {

/// Base for anything holding trainable parameters.
class Module {
 public:
  virtual ~Module() = default;
  /// Trainable parameters (handles share storage with the module).
  [[nodiscard]] virtual std::vector<Tensor> parameters() const = 0;

  void zero_grad() {
    for (auto p : parameters()) p.zero_grad();
  }
  [[nodiscard]] std::size_t parameter_count() const {
    std::size_t n = 0;
    for (const auto& p : parameters()) n += p.size();
    return n;
  }
  /// Raw flattened parameter values, in parameters() order.
  [[nodiscard]] std::vector<double> state() const;
  /// Restore from a state() snapshot; size must match exactly.
  void load_state(std::span<const double> state);
  /// Flattened parameter gradients in parameters() order (zeros where a
  /// gradient was never allocated). Same layout as state().
  [[nodiscard]] std::vector<double> gradients() const;
  /// Accumulate a gradients() snapshot into the parameter gradients
  /// (elementwise +=, ascending index — deterministic).
  void accumulate_gradients(std::span<const double> grads);
};

/// Fully connected layer: y = x W + b, with W of shape (in, out).
class Linear final : public Module {
 public:
  Linear(int in_features, int out_features, util::Rng& rng);
  [[nodiscard]] Tensor forward(const Tensor& x) const;
  /// Tape-free forward: out(rows x out_features) = x W + b. Bitwise
  /// identical to forward() values.
  void infer(const double* x, int rows, double* out) const;
  [[nodiscard]] std::vector<Tensor> parameters() const override;
  [[nodiscard]] int in_features() const noexcept { return in_; }
  [[nodiscard]] int out_features() const noexcept { return out_; }

 private:
  int in_;
  int out_;
  Tensor weight_;
  Tensor bias_;
};

/// Token embedding table: maps integer ids to d-dimensional rows.
class Embedding final : public Module {
 public:
  Embedding(int num_embeddings, int dim, util::Rng& rng);
  [[nodiscard]] Tensor forward(const std::vector<int>& ids) const;
  /// Tape-free row lookup: copies table[id] into out (dim doubles).
  void infer_row(int id, double* out) const;
  [[nodiscard]] std::vector<Tensor> parameters() const override;
  [[nodiscard]] int num_embeddings() const noexcept { return num_; }
  [[nodiscard]] int dim() const noexcept { return dim_; }

 private:
  int num_;
  int dim_;
  Tensor table_;
};

/// Learned per-position (per-recipe) encoding added to the token embedding.
/// The paper uses it to let the model distinguish recipes by their slot in
/// the 40-step tuning sequence.
class PositionalEncoding final : public Module {
 public:
  PositionalEncoding(int max_len, int dim, util::Rng& rng);
  /// Adds encodings for positions [0, x.rows()) to x.
  [[nodiscard]] Tensor forward(const Tensor& x) const;
  /// Tape-free: adds the encoding of position `pos` to one row in place.
  void infer_add_row(int pos, double* x) const;
  [[nodiscard]] std::vector<Tensor> parameters() const override;
  [[nodiscard]] int max_len() const noexcept { return max_len_; }

 private:
  int max_len_;
  int dim_;
  Tensor table_;
};

/// Per-row LayerNorm with learnable gain/bias.
class LayerNorm final : public Module {
 public:
  explicit LayerNorm(int dim);
  [[nodiscard]] Tensor forward(const Tensor& x) const;
  /// Tape-free per-row normalization; out may alias x.
  void infer(const double* x, int rows, double* out) const;
  [[nodiscard]] std::vector<Tensor> parameters() const override;

 private:
  Tensor gain_;
  Tensor bias_;
};

/// Single-head scaled dot-product attention with output projection.
/// Used both for causal self-attention over recipe decisions and for cross
/// attention from recipe positions to the insight embedding.
class SingleHeadAttention final : public Module {
 public:
  SingleHeadAttention(int dim, util::Rng& rng);
  /// query: (Lq, d); key/value source: (Lk, d).
  /// If causal, position i may only attend to source positions <= i
  /// (only meaningful when Lq == Lk).
  [[nodiscard]] Tensor forward(const Tensor& query, const Tensor& memory,
                               bool causal) const;
  /// K/V projection of `rows` source rows (row-major caches):
  /// k = x Wk, v = x Wv, each (rows x dim).
  void infer_kv(const double* x, int rows, double* k, double* v) const;
  /// K/V projection into a feature-major (SoA, transposed) key cache:
  /// kt[c * kt_ld + i] = (x Wk)[i][c] for i in [0, rows), c in [0, dim);
  /// v stays row-major (rows x dim). kt_ld >= rows. The SoA key layout is
  /// what makes the decode attention score sweep unit-stride (see
  /// kern::attn_scores).
  void infer_kv_t(const double* x, int rows, double* kt, int kt_ld,
                  double* v) const;
  /// Query projection of `rows` rows: q = x Wq.
  void infer_q(const double* x, int rows, double* q) const;
  /// Attend `rows` projected query rows, row i over lens[i] cached source
  /// positions at kt[i] (feature-major, shared leading dimension kt_ld) /
  /// v_rows[i] (row-major); causal by construction, since the caller
  /// passes only the visible positions. The per-row context rows are
  /// stacked and output-projected with a single blocked matmul; row i is
  /// bitwise identical to the matching row of forward().
  void infer_attend_batch(const double* q_rows, int rows,
                          const double* const* kt, int kt_ld,
                          const double* const* v_rows, const int* lens,
                          double* out_rows) const;
  [[nodiscard]] int dim() const noexcept { return dim_; }
  [[nodiscard]] std::vector<Tensor> parameters() const override;

 private:
  /// Scores + softmax + value mix of one query row (no Wo projection).
  /// Keys feature-major (kt, leading dimension kt_ld), values row-major.
  void infer_ctx(const double* q_row, const double* kt, int kt_ld,
                 const double* v_rows, int len, double* ctx_row) const;

  int dim_;
  Tensor wq_, wk_, wv_, wo_;
};

/// Position-wise feed-forward: Linear -> ReLU -> Linear.
class FeedForward final : public Module {
 public:
  FeedForward(int dim, int hidden, util::Rng& rng);
  [[nodiscard]] Tensor forward(const Tensor& x) const;
  /// Tape-free forward; out may not alias x.
  void infer(const double* x, int rows, double* out) const;
  [[nodiscard]] std::vector<Tensor> parameters() const override;

 private:
  Linear fc1_;
  Linear fc2_;
};

/// One stacked row's caches for TransformerDecoderLayer::infer_step_batch:
/// its lane's self-attention keys, feature-major (K^T: feature c of
/// position t at self_kt[c * ld + t]), and values, row-major; and its
/// memory's cross-attention K^T (leading dimension mem_rows) and V.
struct RowCache {
  double* self_kt;
  double* self_v;
  const double* cross_kt;
  const double* cross_v;
};

/// Post-norm transformer decoder layer (Vaswani et al.):
/// causal self-attention, cross-attention to a memory sequence, FFN,
/// each with residual connection + LayerNorm.
class TransformerDecoderLayer final : public Module {
 public:
  TransformerDecoderLayer(int dim, int ffn_hidden, util::Rng& rng);
  /// x: (L, d) target sequence; memory: (M, d) context (insight embedding).
  [[nodiscard]] Tensor forward(const Tensor& x, const Tensor& memory) const;
  /// Precompute the cross-attention K/V projection of a fixed memory for
  /// reuse across decode steps: cross_kt is feature-major (dim x mem_rows,
  /// leading dimension mem_rows), cross_v row-major (mem_rows x dim).
  void infer_cross_kv(const double* memory, int mem_rows, double* cross_kt,
                      double* cross_v) const;
  /// The tape-free forward (KV-cached): row i of x_rows is the input at
  /// position pos[i] of the lane whose caches are caches[i] (self K^T
  /// leading dimension self_kt_ld > pos[i]). Every row's K column and V
  /// row are written at pos[i] before any row attends, and row i then
  /// attends over its pos[i] + 1 cached positions. So rows may be
  /// independent lanes (one decode step each), or positions 0..rows-1 of
  /// one lane sharing one cache (the causal full-sequence prefill). All
  /// projections (Q/K/V, Wo, FFN) run as single blocked matmuls over the
  /// stacked rows; out_rows may not alias x_rows. Row i is bitwise
  /// identical to the matching row of forward() over that lane's prefix.
  void infer_step_batch(const double* x_rows, int rows, const int* pos,
                        const RowCache* caches, int self_kt_ld, int mem_rows,
                        double* out_rows) const;
  [[nodiscard]] int dim() const noexcept { return self_attn_.dim(); }
  [[nodiscard]] std::vector<Tensor> parameters() const override;

 private:
  SingleHeadAttention self_attn_;
  SingleHeadAttention cross_attn_;
  FeedForward ffn_;
  LayerNorm norm1_, norm2_, norm3_;
};

}  // namespace vpr::nn
