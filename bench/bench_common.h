#pragma once
// Shared scaffolding for the experiment harnesses: the 17-design suite,
// the cached offline dataset and cross-validation artifacts, and the
// paper's hyperparameters (lambda = 2, K = 5, k = 4 folds, 3,000-point
// dataset, QoR weights 0.7 power / 0.3 TNS).
//
// Environment:
//   INSIGHTALIGN_FAST=1       shrink everything (smoke-test scale)
//   INSIGHTALIGN_CACHE_DIR    relocate the artifact cache

#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <memory>
#include <string>
#include <vector>

#include "align/cache.h"
#include "align/dataset.h"
#include "align/evaluator.h"
#include "flow/flow.h"
#include "netlist/suite.h"
#include "util/log.h"

namespace vpr::bench {

inline bool fast_mode() {
  const char* v = std::getenv("INSIGHTALIGN_FAST");
  return v != nullptr && v[0] != '\0' && v[0] != '0';
}

/// The 17 benchmark designs (owned) + dataset, built or loaded from cache.
struct World {
  std::vector<std::unique_ptr<flow::Design>> owned;
  std::vector<const flow::Design*> designs;
  align::OfflineDataset dataset;

  [[nodiscard]] const flow::Design& by_name(const std::string& name) const {
    for (const auto& d : owned) {
      if (d->name() == name) return *d;
    }
    throw std::out_of_range("unknown design " + name);
  }
  [[nodiscard]] std::size_t index_of(const std::string& name) const {
    for (std::size_t i = 0; i < dataset.size(); ++i) {
      if (dataset.design(i).name == name) return i;
    }
    throw std::out_of_range("unknown design " + name);
  }
};

inline align::DatasetConfig dataset_config() {
  align::DatasetConfig dc;
  dc.points_per_design = fast_mode() ? 24 : 176;  // ~3,000 total at scale
  dc.seed = 0xda7a5e7ULL;
  return dc;
}

inline align::TrainConfig train_config() {
  align::TrainConfig tc;
  tc.lambda = 2.0;  // paper SIV-A
  if (fast_mode()) {
    tc.epochs = 3;
    tc.pairs_per_design = 48;
  } else {
    tc.epochs = 10;
    tc.pairs_per_design = 192;
  }
  return tc;
}

inline align::EvalConfig eval_config() {
  align::EvalConfig ec;
  ec.folds = 4;       // paper: k = 4
  ec.beam_width = 5;  // paper: K = 5
  ec.train = train_config();
  return ec;
}

inline World load_world() {
  World world;
  for (const auto& traits : netlist::benchmark_suite()) {
    auto t = traits;
    if (fast_mode()) t.target_cells = std::min(t.target_cells, 1200);
    world.owned.push_back(std::make_unique<flow::Design>(t));
    world.designs.push_back(world.owned.back().get());
  }
  const std::string tag = fast_mode() ? "fast" : "full";
  const std::string path = align::cache_dir() + "/dataset_" + tag + ".bin";
  if (auto cached = align::load_dataset(path);
      cached.has_value() && cached->size() == world.designs.size()) {
    world.dataset = std::move(*cached);
    return world;
  }
  std::filesystem::create_directories(align::cache_dir());
  world.dataset = align::OfflineDataset::build(world.designs,
                                               dataset_config());
  if (!align::save_dataset(world.dataset, dataset_config().weights, path)) {
    VPR_LOG(Warn) << "failed to write dataset cache " << path
                  << "; the next run will rebuild";
  }
  return world;
}

/// Cross-validation result, computed once and cached.
inline align::CrossValidationResult load_cv(const World& world) {
  const std::string tag = fast_mode() ? "fast" : "full";
  const std::string path = align::cache_dir() + "/cv_" + tag + ".bin";
  if (auto cached = align::load_cv_result(path);
      cached.has_value() && cached->rows.size() == world.designs.size()) {
    return *cached;
  }
  const align::ZeroShotEvaluator evaluator{world.designs, world.dataset,
                                           eval_config()};
  auto result = evaluator.run();
  if (!align::save_cv_result(result, path)) {
    VPR_LOG(Warn) << "failed to write CV cache " << path
                  << "; the next run will recompute";
  }
  return result;
}

/// Trains (or loads) a model on all designs except `holdout_index`.
/// Used by the online fine-tuning figures.
inline align::RecipeModel holdout_model(const World& world,
                                        std::size_t holdout_index) {
  util::Rng rng{util::hash_combine(0x5eedf00dULL, holdout_index)};
  align::RecipeModel model{align::ModelConfig{}, rng};
  const std::string tag = fast_mode() ? "fast" : "full";
  const std::string path = align::cache_dir() + "/model_holdout_" +
                           std::to_string(holdout_index) + "_" + tag + ".bin";
  if (std::ifstream is{path, std::ios::binary}; is) {
    model.load(is);
    return model;
  }
  std::vector<std::size_t> train_split;
  for (std::size_t d = 0; d < world.dataset.size(); ++d) {
    if (d != holdout_index) train_split.push_back(d);
  }
  align::AlignmentTrainer trainer{model, train_config()};
  trainer.train(world.dataset, train_split);
  std::filesystem::create_directories(align::cache_dir());
  std::ofstream os{path, std::ios::binary};
  model.save(os);
  return model;
}

}  // namespace vpr::bench
