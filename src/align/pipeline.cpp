#include "align/pipeline.h"

#include <stdexcept>

#include "flow/eval.h"
#include "insight/insight.h"

namespace vpr::align {

Pipeline::Pipeline(PipelineConfig config) : config_(std::move(config)) {
  util::Rng rng{config_.seed};
  model_ = std::make_unique<RecipeModel>(config_.model, rng);
}

TrainMetrics Pipeline::fit(const std::vector<const flow::Design*>& designs) {
  return fit(OfflineDataset::build(designs, config_.dataset));
}

TrainMetrics Pipeline::fit(OfflineDataset dataset) {
  if (dataset.size() == 0) {
    throw std::invalid_argument("Pipeline::fit: empty dataset");
  }
  dataset_ = std::move(dataset);
  std::vector<std::size_t> split(dataset_.size());
  for (std::size_t i = 0; i < split.size(); ++i) split[i] = i;
  TrainConfig tc = config_.train;
  tc.seed = util::hash_combine(config_.seed, tc.seed);
  AlignmentTrainer trainer{*model_, tc};
  const auto metrics = trainer.train(dataset_, split);
  fitted_ = true;
  return metrics;
}

void Pipeline::restore(OfflineDataset dataset,
                       std::span<const double> state) {
  if (dataset.size() == 0) {
    throw std::invalid_argument("Pipeline::restore: empty dataset");
  }
  model_->load_state(state);
  dataset_ = std::move(dataset);
  fitted_ = true;
}

std::optional<std::size_t> Pipeline::dataset_index(
    const flow::Design& design) const {
  for (std::size_t i = 0; i < dataset_.size(); ++i) {
    if (dataset_.design(i).name == design.name()) return i;
  }
  return std::nullopt;
}

std::vector<Recommendation> Pipeline::recommend(const flow::Design& design,
                                                int k) const {
  if (!fitted_) throw std::logic_error("Pipeline::recommend before fit");
  if (k <= 0) k = config_.beam_width;

  flow::FlowEval& eval = flow::FlowEval::shared();
  // Insight extraction: reuse the archive's vector when the design was in
  // the fit() set, otherwise run a (memoized) probing iteration.
  std::vector<double> iv;
  const auto idx = dataset_index(design);
  if (idx.has_value()) {
    iv = dataset_.design(*idx).insight();
  } else {
    const auto vec = insight::analyze(design, *eval.probe_pinned(design));
    iv.assign(vec.begin(), vec.end());
  }

  // Beam search revisits the same recipe sets across recommend() calls
  // (and across recommend/tune), so validation goes through FlowEval: a
  // repeated candidate costs a lookup, not a flow run. The candidates are
  // independent, so they are validated concurrently.
  const auto candidates = beam_search(*model_, iv, k);
  std::vector<flow::RecipeSet> sets;
  for (const auto& cand : candidates) sets.push_back(cand.recipes);
  std::vector<flow::Qor> qors(sets.size());
  eval.eval_many(design, sets,
                 [&](std::size_t i, const flow::Qor& q) { qors[i] = q; });
  std::vector<Recommendation> out;
  for (std::size_t i = 0; i < candidates.size(); ++i) {
    Recommendation rec;
    rec.recipes = candidates[i].recipes;
    rec.log_prob = candidates[i].log_prob;
    rec.power = qors[i].power;
    rec.tns = qors[i].tns;
    if (idx.has_value()) {
      rec.score = dataset_.design(*idx).score_of(rec.power, rec.tns);
    }
    out.push_back(std::move(rec));
  }
  return out;
}

DesignData Pipeline::bootstrap_design(const flow::Design& design) const {
  DesignData data;
  data.name = design.name();
  flow::FlowEval& eval = flow::FlowEval::shared();
  data.insight_vec = insight::analyze(design, *eval.probe_pinned(design));

  util::Rng rng{util::hash_combine(config_.seed, 0xb007ULL)};
  std::vector<flow::RecipeSet> sets;
  std::vector<std::uint64_t> seen;
  const int n = std::max(4, config_.tune_bootstrap_points);
  while (static_cast<int>(sets.size()) < n) {
    const auto rs = random_recipe_set(rng, config_.dataset.min_recipes,
                                      config_.dataset.max_recipes);
    if (std::find(seen.begin(), seen.end(), rs.to_u64()) != seen.end()) {
      continue;
    }
    seen.push_back(rs.to_u64());
    sets.push_back(rs);
  }
  data.points.resize(sets.size());
  eval.eval_many(
      design, sets,
      [&](std::size_t i, const flow::Qor& q) {
        data.points[i] = {sets[i], q.power, q.tns, 0.0};
      });
  data.finalize(config_.dataset.weights);
  return data;
}

OnlineResult Pipeline::tune(const flow::Design& design,
                            const OnlineConfig& config) {
  if (!fitted_) throw std::logic_error("Pipeline::tune before fit");
  const auto idx = dataset_index(design);
  if (idx.has_value()) {
    OnlineTuner tuner{*model_, design, dataset_.design(*idx), config};
    return tuner.run();
  }
  const DesignData data = bootstrap_design(design);
  OnlineTuner tuner{*model_, design, data, config};
  return tuner.run();
}

const RecipeModel& Pipeline::model() const {
  if (!model_) throw std::logic_error("Pipeline: no model");
  return *model_;
}

RecipeModel& Pipeline::model() {
  if (!model_) throw std::logic_error("Pipeline: no model");
  return *model_;
}

const OfflineDataset& Pipeline::dataset() const {
  if (!fitted_) throw std::logic_error("Pipeline::dataset before fit");
  return dataset_;
}

}  // namespace vpr::align
