#pragma once
// Preference-alignment losses over recipe-set sequence likelihoods:
//   - margin-based DPO (paper eq. 2) — the main training objective
//   - plain DPO with a uniform reference policy (paper eq. 1) — ablation
//   - supervised NLL of each pair's winner sequence — ablation baseline
//   - clipped PPO surrogate — online fine-tuning component
// All losses return differentiable 1x1 tensors.

#include <span>

#include "align/recipe_model.h"
#include "nn/tensor.h"

namespace vpr::align {

/// A pair loss together with the sequence log-likelihood tensors already
/// sitting in its graph. Reading lp_i/lp_j values costs nothing extra,
/// which spares callers (the trainer's ranking-accuracy bookkeeping) a
/// second full forward per sequence. lp_j is undefined for nll_loss_terms.
struct PairLossTerms {
  nn::Tensor loss;
  nn::Tensor lp_i;
  nn::Tensor lp_j;
};

/// Margin-based DPO (eq. 2) for one pair under insight I:
///   max(0, lambda*|q_i - q_j| - sign(q_i - q_j) * (log pi_i - log pi_j)).
[[nodiscard]] nn::Tensor mdpo_pair_loss(const RecipeModel& model,
                                        std::span<const double> insight,
                                        std::span<const int> bits_i,
                                        std::span<const int> bits_j,
                                        double score_i, double score_j,
                                        double lambda);

/// mdpo_pair_loss plus the two log-likelihood tensors from its graph.
[[nodiscard]] PairLossTerms mdpo_pair_loss_terms(
    const RecipeModel& model, std::span<const double> insight,
    std::span<const int> bits_i, std::span<const int> bits_j, double score_i,
    double score_j, double lambda);

/// Plain DPO (eq. 1) with uniform reference policy (the pi_ref terms cancel
/// for fixed-length binary sequences): -logsigmoid(beta*(lp_w - lp_l)).
[[nodiscard]] nn::Tensor dpo_pair_loss(const RecipeModel& model,
                                       std::span<const double> insight,
                                       std::span<const int> bits_winner,
                                       std::span<const int> bits_loser,
                                       double beta);

/// dpo_pair_loss plus the two log-likelihood tensors from its graph
/// (lp_i = winner, lp_j = loser).
[[nodiscard]] PairLossTerms dpo_pair_loss_terms(
    const RecipeModel& model, std::span<const double> insight,
    std::span<const int> bits_winner, std::span<const int> bits_loser,
    double beta);

/// Supervised NLL ablation: the negative log-likelihood of one recipe
/// sequence (the trainer passes each pair's winner).
[[nodiscard]] nn::Tensor nll_loss(const RecipeModel& model,
                                  std::span<const double> insight,
                                  std::span<const int> bits);

/// nll_loss plus the log-likelihood tensor (lp_i; lp_j stays undefined).
[[nodiscard]] PairLossTerms nll_loss_terms(const RecipeModel& model,
                                           std::span<const double> insight,
                                           std::span<const int> bits);

/// Clipped PPO surrogate for one sampled recipe set:
///   -min(r * A, clip(r, 1-eps, 1+eps) * A),  r = exp(lp_new - lp_old).
/// `old_log_prob` is a frozen scalar from the pre-update policy snapshot.
[[nodiscard]] nn::Tensor ppo_loss(const RecipeModel& model,
                                  std::span<const double> insight,
                                  std::span<const int> bits,
                                  double old_log_prob, double advantage,
                                  double clip_eps = 0.2);

}  // namespace vpr::align
