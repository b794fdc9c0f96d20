#pragma once
// Offline QoR-alignment training (paper Algorithm 1, AlignmentTrain):
// pairwise preference updates over all designs in the training split,
// using margin-based DPO by default (plain DPO and supervised NLL are
// available for the ablation benches).

#include <cstdint>
#include <span>
#include <vector>

#include "align/dataset.h"
#include "align/recipe_model.h"

namespace vpr::align {

enum class LossKind { kMarginDpo, kPlainDpo, kSupervisedNll };

struct TrainConfig {
  LossKind loss = LossKind::kMarginDpo;
  double lambda = 2.0;      // margin scale (paper: lambda = 2)
  double beta = 1.0;        // plain-DPO sharpness
  double lr = 2e-3;
  int epochs = 12;
  int pairs_per_design = 256;  // sampled preference pairs per design/epoch
  int minibatch = 8;           // pairs per optimizer step
  double grad_clip = 5.0;
  double min_score_gap = 0.05;  // skip near-tie pairs
  std::uint64_t seed = 0x7121bULL;
  /// Zero out the insight vector during training/eval (ablation).
  bool blind_insights = false;
};

struct TrainMetrics {
  std::vector<double> epoch_loss;      // mean pair loss per epoch
  std::vector<double> epoch_accuracy;  // pairwise ranking accuracy per epoch
  int optimizer_steps = 0;
  [[nodiscard]] double final_loss() const {
    return epoch_loss.empty() ? 0.0 : epoch_loss.back();
  }
  [[nodiscard]] double final_accuracy() const {
    return epoch_accuracy.empty() ? 0.0 : epoch_accuracy.back();
  }
};

class AlignmentTrainer {
 public:
  AlignmentTrainer(RecipeModel& model, TrainConfig config);

  /// Trains on the dataset designs whose indices appear in `train_designs`.
  TrainMetrics train(const OfflineDataset& dataset,
                     std::span<const std::size_t> train_designs);

  /// Pairwise ranking accuracy of the current model on the given designs
  /// (sampled pairs; no parameter updates).
  [[nodiscard]] double evaluate_pair_accuracy(
      const OfflineDataset& dataset, std::span<const std::size_t> designs,
      int pairs_per_design = 200) const;

 private:
  RecipeModel& model_;
  TrainConfig config_;
};

}  // namespace vpr::align
