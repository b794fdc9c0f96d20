#include "align/evaluator.h"

#include <algorithm>
#include <numeric>
#include <stdexcept>

#include "align/beam.h"
#include "flow/eval.h"
#include "util/rng.h"
#include "util/thread_pool.h"

namespace vpr::align {

double CrossValidationResult::mean_win_pct() const {
  if (rows.empty()) return 0.0;
  double sum = 0.0;
  for (const auto& r : rows) sum += r.win_pct;
  return sum / static_cast<double>(rows.size());
}

ZeroShotEvaluator::ZeroShotEvaluator(
    const std::vector<const flow::Design*>& designs,
    const OfflineDataset& dataset, EvalConfig config)
    : designs_(designs), dataset_(dataset), config_(config) {
  if (designs_.size() != dataset_.size()) {
    throw std::invalid_argument("ZeroShotEvaluator: design/dataset mismatch");
  }
  if (config_.folds < 2 ||
      config_.folds > static_cast<int>(designs_.size())) {
    throw std::invalid_argument("ZeroShotEvaluator: bad fold count");
  }
}

std::vector<int> ZeroShotEvaluator::fold_assignment() const {
  // Greedy balancing by datapoint count over a seeded-random design order
  // (the paper: "k random groups with roughly equal numbers of datapoints").
  std::vector<std::size_t> order(designs_.size());
  std::iota(order.begin(), order.end(), std::size_t{0});
  util::Rng rng{config_.seed};
  rng.shuffle(order);
  std::vector<int> assignment(designs_.size(), 0);
  std::vector<int> load(static_cast<std::size_t>(config_.folds), 0);
  for (const std::size_t d : order) {
    const auto lightest = static_cast<int>(
        std::min_element(load.begin(), load.end()) - load.begin());
    assignment[d] = lightest;
    load[static_cast<std::size_t>(lightest)] +=
        static_cast<int>(dataset_.design(d).points.size());
  }
  return assignment;
}

DesignEvaluation ZeroShotEvaluator::evaluate_design(const RecipeModel& model,
                                                    std::size_t design_index,
                                                    int beam_width) const {
  const DesignData& data = dataset_.design(design_index);
  const flow::Design& design = *designs_[design_index];
  DesignEvaluation eval;
  eval.design = data.name;

  const DataPoint& best = data.best_known();
  eval.known_tns = best.tns;
  eval.known_power = best.power;
  eval.known_score = best.score;

  std::vector<double> iv = data.insight();
  if (config_.train.blind_insights) {
    std::fill(iv.begin(), iv.end() - 1, 0.0);
  }
  const auto candidates = beam_search(model, iv, beam_width);

  std::vector<flow::RecipeSet> sets;
  for (const auto& cand : candidates) sets.push_back(cand.recipes);
  std::vector<flow::Qor> qors(sets.size());
  flow::FlowEval::shared().eval_many(
      design, sets, [&](std::size_t i, const flow::Qor& q) { qors[i] = q; });
  double best_score = -1e18;
  for (std::size_t i = 0; i < sets.size(); ++i) {
    const flow::Qor& q = qors[i];
    DataPoint p{sets[i], q.power, q.tns, data.score_of(q.power, q.tns)};
    eval.recommendations.push_back(p);
    if (p.score > best_score) {
      best_score = p.score;
      eval.rec_tns = p.tns;
      eval.rec_power = p.power;
      eval.rec_score = p.score;
      eval.best_recipes = p.recipes;
    }
  }
  int beaten = 0;
  for (const auto& p : data.points) {
    if (best_score > p.score) ++beaten;
  }
  eval.win_pct = 100.0 * static_cast<double>(beaten) /
                 static_cast<double>(data.points.size());
  return eval;
}

CrossValidationResult ZeroShotEvaluator::run() const {
  const auto folds = fold_assignment();
  CrossValidationResult result;
  result.rows.resize(designs_.size());

  // The folds are independent, so they run as pool tasks; the minibatches
  // and validation flows inside each fold nest on the same pool. A fold
  // writes the rows of its own test designs and its own accuracy slot, and
  // the accuracies are merged in fold order below.
  struct FoldAccuracy {
    bool ran = false;
    double train = 0.0;
    double test = 0.0;
  };
  std::vector<FoldAccuracy> accuracy(static_cast<std::size_t>(config_.folds));
  util::ThreadPool::shared().parallel_for(accuracy.size(), [&](std::size_t f) {
    const int fold = static_cast<int>(f);
    std::vector<std::size_t> train_split;
    std::vector<std::size_t> test_split;
    for (std::size_t d = 0; d < designs_.size(); ++d) {
      if (folds[d] == fold) {
        test_split.push_back(d);
      } else {
        train_split.push_back(d);
      }
    }
    if (test_split.empty()) return;

    // Fresh model per fold, seeded deterministically.
    util::Rng init_rng{util::hash_combine(config_.seed, fold)};
    RecipeModel model{ModelConfig{}, init_rng};
    TrainConfig train_config = config_.train;
    train_config.seed = util::hash_combine(config_.train.seed, fold);
    AlignmentTrainer trainer{model, train_config};
    trainer.train(dataset_, train_split);
    accuracy[f] = {true, trainer.evaluate_pair_accuracy(dataset_, train_split),
                   trainer.evaluate_pair_accuracy(dataset_, test_split)};

    for (const std::size_t d : test_split) {
      result.rows[d] = evaluate_design(model, d, config_.beam_width);
    }
  });
  for (const FoldAccuracy& acc : accuracy) {
    if (!acc.ran) continue;
    result.fold_train_accuracy.push_back(acc.train);
    result.fold_test_accuracy.push_back(acc.test);
  }
  return result;
}

}  // namespace vpr::align
