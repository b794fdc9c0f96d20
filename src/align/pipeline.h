#pragma once
// One-stop facade over the full InsightAlign workflow — the API a
// downstream adopter uses without touching the individual pieces:
//
//   Pipeline pipeline{config};
//   pipeline.fit(designs);                    // offline archive + alignment
//   auto recs = pipeline.recommend(new_design, 5);   // zero-shot, validated
//   auto trace = pipeline.tune(new_design, online);  // closed-loop refine
//
// fit/recommend/tune are deterministic given the config seed. The aligned
// model's state() persists as a model::Snapshot file, and restore() picks
// it up in a later session.

#include <memory>
#include <optional>
#include <span>
#include <vector>

#include "align/beam.h"
#include "align/dataset.h"
#include "align/online.h"
#include "align/trainer.h"

namespace vpr::align {

struct PipelineConfig {
  DatasetConfig dataset;
  TrainConfig train;
  ModelConfig model;
  int beam_width = 5;  // paper: K = 5
  /// Archive size bootstrapped for a brand-new design before online
  /// tuning (provides the per-design QoR normalization).
  int tune_bootstrap_points = 24;
  std::uint64_t seed = 0x919e11e5ULL;
};

/// A zero-shot recommendation validated through the flow.
struct Recommendation {
  flow::RecipeSet recipes;
  double log_prob = 0.0;  // model confidence
  double power = 0.0;     // measured by the flow
  double tns = 0.0;
  /// Compound score; only meaningful when the design was part of fit()
  /// (per-design normalization), nullopt otherwise.
  std::optional<double> score;
};

class Pipeline {
 public:
  explicit Pipeline(PipelineConfig config);

  /// Offline phase: probing runs + archive + margin-DPO alignment.
  /// Returns the training metrics.
  TrainMetrics fit(const std::vector<const flow::Design*>& designs);
  /// Same, over a pre-built dataset (e.g. loaded from cache).
  TrainMetrics fit(OfflineDataset dataset);
  /// Restores a previously fitted pipeline from its dataset and the
  /// aligned model's state() without retraining (the CLI's recommend/tune
  /// path). Throws std::invalid_argument when the state does not fit the
  /// model architecture.
  void restore(OfflineDataset dataset, std::span<const double> state);

  /// Zero-shot top-K recommendations for a design (seen or unseen):
  /// probing run -> insights -> beam search -> flow validation.
  [[nodiscard]] std::vector<Recommendation> recommend(
      const flow::Design& design, int k = -1) const;

  /// Closed-loop online fine-tuning on one design. For designs not in the
  /// fit() archive, a small bootstrap archive is built first to establish
  /// the QoR normalization. Updates the pipeline's model in place.
  OnlineResult tune(const flow::Design& design, const OnlineConfig& config);

  [[nodiscard]] bool fitted() const noexcept { return fitted_; }
  [[nodiscard]] const RecipeModel& model() const;
  [[nodiscard]] RecipeModel& model();
  [[nodiscard]] const OfflineDataset& dataset() const;

 private:
  /// Index of `design` in the fitted dataset, if present.
  [[nodiscard]] std::optional<std::size_t> dataset_index(
      const flow::Design& design) const;
  /// Builds an ad-hoc DesignData (probe + bootstrap archive) for a design
  /// outside the fitted archive.
  [[nodiscard]] DesignData bootstrap_design(const flow::Design& design) const;

  PipelineConfig config_;
  std::unique_ptr<RecipeModel> model_;
  OfflineDataset dataset_;
  bool fitted_ = false;
};

}  // namespace vpr::align
