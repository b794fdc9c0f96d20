#pragma once
// The InsightAlign recipe recommender model (paper Table III):
// a decoder-only generative model over recipe decision tokens.
//
//   Decision Token Embed.  Embedding        (40, 3)   -> (40, 32)
//   Recipe Pos. Enc.       Pos. Encoding    (40, 32)  -> (40, 32)
//   Insight Embed.         Linear x1        (1, 72)   -> (1, 32)
//   Transformer Dec.       Decoder x1       (1,32)+(40,32) -> (40, 1)
//   Probabilistic          Sigmoid x40      (40, 1)   -> (40, 1)
//
// Position t decides recipe t. The input token at position t is the
// previous decision r_{t-1} (SOS at position 0), so causal self-attention
// gives logit_t access to exactly r_{<t}, which makes teacher-forced
// sequence likelihoods (paper eq. 3) a single forward pass.

#include <memory>
#include <span>
#include <vector>

#include "nn/modules.h"
#include "nn/tensor.h"
#include "util/rng.h"

namespace vpr::align {

/// Token ids for the decision vocabulary.
inline constexpr int kTokenNotSelected = 0;
inline constexpr int kTokenSelected = 1;
inline constexpr int kTokenSos = 2;

struct ModelConfig {
  int num_recipes = 40;
  int d_model = 32;
  int insight_dim = 72;
  int ffn_hidden = 64;
  /// Paper Table III uses a single decoder layer; deeper stacks are an
  /// extension (exercised by the ablation bench).
  int decoder_layers = 1;
};

class RecipeModel;
class DecodeSession;

/// One lane-step of a cross-session micro-batch: advance `lane` of
/// `session` by one position, feeding `prev_decision` as the input token
/// (ignored at position 0). See DecodeSession::step_batch.
struct BatchStep {
  DecodeSession* session = nullptr;
  int lane = 0;
  int prev_decision = 0;
};

/// KV-cached incremental decoding over a fixed insight (tape-free).
///
/// The session holds, per decoder layer, the cross-attention K/V projection
/// of the insight embedding (computed once at construction) and, per lane,
/// the self-attention K/V rows of every position decoded so far. A lane is
/// one independent prefix; step_batch() extends any set of lanes by one
/// position each at O(prefix) cost instead of re-running the full
/// O(prefix^2) forward. Beam search uses one lane per beam entry plus
/// copy_lane() to duplicate a surviving parent's cache when the beam
/// reorders. Probabilities are bitwise identical to the autograd forward
/// over the same prefix.
class DecodeSession {
 public:
  /// P(r_t = 1 | prefix, I) for this lane's next position t == length(lane).
  /// `prev_decision` is r_{t-1} (ignored at t == 0, where SOS is fed).
  /// Advances the lane's cache by one position: a one-row step_batch.
  double step(int lane, int prev_decision);
  /// Duplicate lane `src`'s cached prefix (all layers + length) into `dst`.
  void copy_lane(int dst, int src);
  /// Discard lane's cached prefix so it can decode a new sequence.
  void reset_lane(int lane);
  /// Number of positions decoded so far in this lane.
  [[nodiscard]] int length(int lane) const;
  [[nodiscard]] int lanes() const noexcept { return max_lanes_; }
  /// Max positions per lane (the model's num_recipes).
  [[nodiscard]] int positions() const noexcept { return n_; }
  /// The model this session decodes with.
  [[nodiscard]] const RecipeModel& model() const noexcept { return *model_; }

  /// Re-target the session at a new insight without reallocating: recomputes
  /// the insight embedding and per-layer cross-attention K/V and resets all
  /// lanes. The serve-layer session arena uses this to recycle KV buffers
  /// across requests; after rebind the session is bitwise indistinguishable
  /// from a freshly constructed one over the same insight.
  void rebind(std::span<const double> insight);

  /// Re-target the session at a *different model* over the same
  /// architecture (num_recipes / d_model / decoder depth must match) and
  /// a new insight. The serving hot-swap path uses this so pooled KV
  /// buffers survive a model-version swap without reallocation; after the
  /// call the session is bitwise indistinguishable from one freshly
  /// constructed on `model`. Throws std::invalid_argument when the
  /// architectures differ. Never reads the previously bound model, so it
  /// is safe even after that model has been retired and destroyed.
  void rebind(const RecipeModel& model, std::span<const double> insight);

  /// Advance a batch of independent lanes — possibly spread across several
  /// sessions (all over the same model) — by one position each, stacking
  /// the lane rows into single blocked-matmul forwards (see
  /// TransformerDecoderLayer::infer_step_batch). probs_out[i] receives
  /// P(r_t = 1) for steps[i], bitwise identical to the tape forward over
  /// that lane's prefix and independent of the rest of the batch. Lanes
  /// must be distinct across the batch; sessions may repeat (one entry
  /// per beam lane).
  static void step_batch(std::span<const BatchStep> steps, double* probs_out);

 private:
  friend class RecipeModel;
  DecodeSession(const RecipeModel& model, std::span<const double> insight,
                int max_lanes);

  /// Base of a lane's feature-major self-attention key cache (d x n,
  /// leading dimension n: feature c of position t lives at [c * n + t], so
  /// the attention score sweep over positions is unit-stride).
  [[nodiscard]] double* self_kt(int layer, int lane);
  /// Base of a lane's row-major self-attention value cache (n x d).
  [[nodiscard]] double* self_v(int layer, int lane);
  void check_lane(int lane) const;
  /// Validates lane/prev and returns the input token for the lane's next
  /// position (shared by step and step_batch).
  [[nodiscard]] int step_token(int lane, int prev_decision) const;

  const RecipeModel* model_;
  int max_lanes_;
  int n_;       // num_recipes (max positions per lane)
  int d_;       // d_model
  int layers_;  // decoder stack depth
  // Cross-attention key projection, feature-major (d x mem_rows with
  // mem_rows == 1, so the storage coincides with the old (1 x d) row).
  std::vector<double> cross_k_;  // layers x (d x 1)
  std::vector<double> cross_v_;  // layers x (1 x d)
  // Self-attention caches, SoA: keys feature-major (K^T), values row-major.
  std::vector<double> self_k_;   // layers x lanes x (d x n) K^T
  std::vector<double> self_v_;   // layers x lanes x (n x d)
  std::vector<int> len_;         // per-lane decoded length
};

class RecipeModel final : public nn::Module {
 public:
  RecipeModel(const ModelConfig& config, util::Rng& rng);

  [[nodiscard]] const ModelConfig& config() const noexcept { return config_; }

  /// Teacher-forced logits for the first `steps` positions (default: all).
  /// `decisions` is the full (or prefix) 0/1 recipe vector; decisions[i]
  /// is consumed as the input token of position i+1, so only the first
  /// steps-1 entries are read. Returns a (steps, 1) tensor of pre-sigmoid
  /// logits, differentiable w.r.t. model parameters.
  [[nodiscard]] nn::Tensor forward_logits(std::span<const double> insight,
                                          std::span<const int> decisions,
                                          int steps = -1) const;

  /// log pi(R | I) = sum_t log P(r_t | r_<t, I)  (paper eq. 3).
  /// Differentiable scalar tensor.
  [[nodiscard]] nn::Tensor sequence_log_prob(
      std::span<const double> insight, std::span<const int> decisions) const;

  /// Non-differentiable convenience: numeric value of sequence_log_prob,
  /// computed on the tape-free fast path (bitwise identical).
  [[nodiscard]] double log_prob(std::span<const double> insight,
                                std::span<const int> decisions) const;

  /// Open a KV-cached incremental decode session with `max_lanes`
  /// independent prefixes over this insight (see DecodeSession).
  [[nodiscard]] DecodeSession decode(std::span<const double> insight,
                                     int max_lanes = 1) const;

  /// Per-position P(r_t = 1 | r_<t, I) under teacher forcing (diagnostics).
  [[nodiscard]] std::vector<double> step_probs(
      std::span<const double> insight,
      std::span<const int> decisions) const;

  [[nodiscard]] std::vector<nn::Tensor> parameters() const override;

 private:
  friend class DecodeSession;

  [[nodiscard]] nn::Tensor insight_embedding(
      std::span<const double> insight) const;
  /// Tape-free insight embedding, projected into every layer's
  /// cross-attention K^T / V (layer l at offset l * d_model of each).
  void encode_insight(std::span<const double> insight, double* cross_k,
                      double* cross_v) const;
  /// The one tape-free forward, shared by prefill (infer_logits) and
  /// decode (DecodeSession::step_batch): row i embeds tokens[i] at
  /// position pos[i], runs through each layer l's infer_step_batch with
  /// the caches caches[l * rows + i] (self K^T leading dimension kt_ld),
  /// and writes its head logit to logits[i].
  void forward_rows(int rows, const int* tokens, const int* pos,
                    const nn::RowCache* caches, int kt_ld,
                    double* logits) const;
  /// Tape-free teacher-forced logits of all num_recipes positions,
  /// written to logits_out, bitwise identical to forward_logits(): a
  /// prefill of every position as one forward_rows batch over one lane's
  /// caches.
  void infer_logits(std::span<const double> insight,
                    std::span<const int> decisions, double* logits_out) const;
  /// Validates `decisions` and expands it into input tokens (SOS-shifted).
  [[nodiscard]] std::vector<int> input_tokens(std::span<const int> decisions,
                                              int steps) const;

  ModelConfig config_;
  nn::Embedding token_embed_;
  nn::PositionalEncoding pos_enc_;
  nn::Linear insight_embed_;
  std::vector<std::unique_ptr<nn::TransformerDecoderLayer>> decoder_stack_;
  nn::Linear head_;
};

}  // namespace vpr::align
