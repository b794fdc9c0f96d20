#pragma once
// Offline dataset construction (paper §III-E1 / §IV-A): for each design,
// run the probing iteration to extract its insight vector, then collect
// (recipe set, QoR) datapoints from seeded-random recipe subsets — the
// stand-in for the paper's archive of 3,000 flow runs across 17 designs.
// The compound QoR score (paper eq. 4) is z-normalized per design.

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "flow/flow.h"
#include "insight/insight.h"
#include "util/stats.h"

namespace vpr::align {

/// User QoR intention: weights of eq. 4 (both metrics minimized).
struct QorWeights {
  double power = 0.7;
  double tns = 0.3;
};

struct DataPoint {
  flow::RecipeSet recipes;
  double power = 0.0;  // mW
  double tns = 0.0;    // ns
  double score = 0.0;  // compound score, higher is better
};

/// All datapoints of one design plus its insight vector and the per-design
/// normalization stats used by eq. 4.
class DesignData {
 public:
  std::string name;
  insight::InsightVector insight_vec{};
  std::vector<DataPoint> points;

  /// Fits the z-normalizers over `points` and fills each point's score.
  void finalize(const QorWeights& weights);
  /// Scores a new (power, tns) with the frozen per-design stats.
  [[nodiscard]] double score_of(double power, double tns) const;
  /// Highest-scoring known datapoint; throws if empty.
  [[nodiscard]] const DataPoint& best_known() const;
  /// Insight vector as a double span for the model.
  [[nodiscard]] std::vector<double> insight() const {
    return {insight_vec.begin(), insight_vec.end()};
  }

 private:
  QorWeights weights_;
  util::ZScore power_z_;
  util::ZScore tns_z_;
  bool finalized_ = false;
};

struct DatasetConfig {
  /// Total datapoints per design: `expert_points` of them come from a
  /// greedy expert-tuning stand-in (the paper's archive contains
  /// "known-good manually tuned expert design recipes"), the rest from
  /// seeded-random recipe subsets.
  int points_per_design = 176;  // ~3000 over 17 designs
  int expert_points = 24;
  int min_recipes = 1;
  int max_recipes = 12;
  std::uint64_t seed = 0xda7aULL;
  QorWeights weights;
};

class OfflineDataset {
 public:
  /// Runs the flows and builds the dataset. `designs` must outlive nothing
  /// (data is copied out); deterministic given config.seed.
  static OfflineDataset build(const std::vector<const flow::Design*>& designs,
                              const DatasetConfig& config);

  /// Reassembles a dataset from per-design data (deserialization path);
  /// re-finalizes every design with `weights`.
  static OfflineDataset from_designs(std::vector<DesignData> designs,
                                     const QorWeights& weights);

  [[nodiscard]] const std::vector<DesignData>& designs() const noexcept {
    return designs_;
  }
  [[nodiscard]] DesignData& design(std::size_t i) { return designs_.at(i); }
  [[nodiscard]] const DesignData& design(std::size_t i) const {
    return designs_.at(i);
  }
  [[nodiscard]] std::size_t size() const noexcept { return designs_.size(); }
  [[nodiscard]] int total_points() const;

 private:
  std::vector<DesignData> designs_;
};

/// Seeded random recipe subset with min..max recipes selected.
[[nodiscard]] flow::RecipeSet random_recipe_set(util::Rng& rng,
                                                int min_recipes,
                                                int max_recipes);

}  // namespace vpr::align
