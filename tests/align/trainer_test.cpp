#include "align/trainer.h"

#include <gtest/gtest.h>

#include <bit>
#include <cstdint>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <set>
#include <variant>

#include "align/cache.h"
#include "align/evaluator.h"
#include "obs/trace.h"

namespace vpr::align {
namespace {

/// Shared tiny dataset: 3 small designs x 16 points (built once).
struct World {
  std::vector<const flow::Design*> designs;
  OfflineDataset dataset;

  World() {
    static const flow::Design d1{make_traits("twA", 3001, 1.8, 0.05)};
    static const flow::Design d2{make_traits("twB", 3002, 0.9, 0.25)};
    static const flow::Design d3{make_traits("twC", 3003, 2.5, 0.12)};
    designs = {&d1, &d2, &d3};
    DatasetConfig dc;
    dc.points_per_design = 16;
    dc.seed = 909;
    dataset = OfflineDataset::build(designs, dc);
  }

  static netlist::DesignTraits make_traits(const char* name,
                                           std::uint64_t seed, double period,
                                           double activity) {
    netlist::DesignTraits t;
    t.name = name;
    t.target_cells = 450;
    t.clock_period_ns = period;
    t.activity_mean = activity;
    t.seed = seed;
    return t;
  }
};

World& world() {
  static World w;
  return w;
}

TrainConfig fast_config() {
  TrainConfig tc;
  tc.epochs = 3;
  tc.pairs_per_design = 40;
  tc.seed = 515;
  return tc;
}

TEST(AlignmentTrainer, LossDecreasesAndAccuracyRises) {
  auto& w = world();
  util::Rng rng{61};
  RecipeModel model{ModelConfig{}, rng};
  AlignmentTrainer trainer{model, fast_config()};
  const std::vector<std::size_t> all{0, 1, 2};
  const auto metrics = trainer.train(w.dataset, all);
  ASSERT_EQ(metrics.epoch_loss.size(), 3u);
  EXPECT_LT(metrics.epoch_loss.back(), metrics.epoch_loss.front());
  EXPECT_GT(metrics.final_accuracy(), 0.6);
  EXPECT_GT(metrics.optimizer_steps, 0);
}

TEST(AlignmentTrainer, PlainDpoAlsoLearns) {
  auto& w = world();
  util::Rng rng{62};
  RecipeModel model{ModelConfig{}, rng};
  TrainConfig tc = fast_config();
  tc.loss = LossKind::kPlainDpo;
  AlignmentTrainer trainer{model, tc};
  const std::vector<std::size_t> all{0, 1, 2};
  const auto metrics = trainer.train(w.dataset, all);
  EXPECT_GT(metrics.final_accuracy(), 0.55);
}

TEST(AlignmentTrainer, SupervisedNllRuns) {
  auto& w = world();
  util::Rng rng{63};
  RecipeModel model{ModelConfig{}, rng};
  TrainConfig tc = fast_config();
  tc.loss = LossKind::kSupervisedNll;
  AlignmentTrainer trainer{model, tc};
  const std::vector<std::size_t> all{0, 1, 2};
  EXPECT_NO_THROW(trainer.train(w.dataset, all));
}

TEST(AlignmentTrainer, EvaluatePairAccuracyBounded) {
  auto& w = world();
  util::Rng rng{64};
  RecipeModel model{ModelConfig{}, rng};
  AlignmentTrainer trainer{model, fast_config()};
  const std::vector<std::size_t> all{0, 1, 2};
  const double acc = trainer.evaluate_pair_accuracy(w.dataset, all, 50);
  EXPECT_GE(acc, 0.0);
  EXPECT_LE(acc, 1.0);
}

TEST(AlignmentTrainer, RejectsEmptySplit) {
  auto& w = world();
  util::Rng rng{65};
  RecipeModel model{ModelConfig{}, rng};
  AlignmentTrainer trainer{model, fast_config()};
  EXPECT_THROW((void)trainer.train(w.dataset, {}), std::invalid_argument);
}

TEST(AlignmentTrainer, DeterministicTraining) {
  auto& w = world();
  const std::vector<std::size_t> all{0, 1, 2};
  const auto run = [&] {
    util::Rng rng{66};
    RecipeModel model{ModelConfig{}, rng};
    AlignmentTrainer trainer{model, fast_config()};
    trainer.train(w.dataset, all);
    return model.state();
  };
  EXPECT_EQ(run(), run());
}

TEST(AlignmentTrainer, ReplicaSpansCoverEveryPairOnce) {
  // Every participant of a minibatch's parallel_for, pool workers
  // included, books its pairs in a train.replica span; together they
  // count each of train.minibatch's pairs exactly once.
  auto& w = world();
  util::Rng rng{67};
  RecipeModel model{ModelConfig{}, rng};
  AlignmentTrainer trainer{model, fast_config()};
  const std::vector<std::size_t> all{0, 1, 2};
  auto& recorder = obs::TraceRecorder::instance();
  recorder.clear();
  recorder.set_enabled(true);
  const auto metrics = trainer.train(w.dataset, all);
  recorder.set_enabled(false);
  const std::vector<obs::TraceEvent> events = recorder.snapshot();
  recorder.clear();
  std::int64_t minibatch_pairs = 0;
  std::int64_t replica_pairs = 0;
  int minibatches = 0;
  int replicas = 0;
  for (const obs::TraceEvent& e : events) {
    const bool replica = e.name == "train.replica";
    if (!replica && e.name != "train.minibatch") continue;
    EXPECT_EQ(e.category, "train");
    ASSERT_EQ(e.args.size(), 1u) << e.name;
    ASSERT_EQ(e.args[0].key, "pairs");
    const auto pairs = std::get<std::int64_t>(e.args[0].value);
    (replica ? replica_pairs : minibatch_pairs) += pairs;
    ++(replica ? replicas : minibatches);
  }
  EXPECT_EQ(minibatches, metrics.optimizer_steps);
  EXPECT_GE(replicas, minibatches);
  EXPECT_GT(minibatch_pairs, 0);
  EXPECT_EQ(replica_pairs, minibatch_pairs);
}

/// Order-sensitive hash of the exact bits of a sequence of doubles.
struct BitHash {
  std::uint64_t h = 0;
  void mix(double v) {
    h = util::hash_combine(h, std::bit_cast<std::uint64_t>(v));
  }
  void mix(std::span<const double> vs) {
    for (const double v : vs) mix(v);
  }
};

TEST(AlignmentTrainer, TrainMatchesParentFingerprint) {
  // Trained parameters and metrics of every loss, hashed bit for bit. The
  // constant was captured with the pairs of a minibatch evaluated one
  // after another on the caller; evaluating them on the pool must not
  // move a bit, at any pool size.
  auto& w = world();
  const std::vector<std::size_t> all{0, 1, 2};
  BitHash h;
  const auto train = [&](TrainConfig tc, std::uint64_t init_seed) {
    util::Rng rng{init_seed};
    RecipeModel model{ModelConfig{}, rng};
    AlignmentTrainer trainer{model, tc};
    const auto metrics = trainer.train(w.dataset, all);
    h.mix(model.state());
    h.mix(metrics.epoch_loss);
    h.mix(metrics.epoch_accuracy);
    h.h = util::hash_combine(
        h.h, static_cast<std::uint64_t>(metrics.optimizer_steps));
  };
  TrainConfig tc = fast_config();
  train(tc, 71);
  tc.loss = LossKind::kPlainDpo;
  train(tc, 72);
  tc.loss = LossKind::kSupervisedNll;
  train(tc, 73);
  tc.loss = LossKind::kMarginDpo;
  tc.blind_insights = true;
  tc.minibatch = 5;  // a short last minibatch in every epoch
  train(tc, 74);
  EXPECT_EQ(h.h, 0xfde9a3c725786058ULL) << std::hex << "0x" << h.h;
}

TEST(ZeroShotEvaluator, RunMatchesParentFingerprint) {
  // A three-fold CV's Table IV rows and per-fold accuracies, hashed bit for
  // bit. The constant was captured with the folds run one after another;
  // running them as pool tasks must not move a bit, at any pool size.
  auto& w = world();
  EvalConfig ec;
  ec.folds = 3;
  ec.beam_width = 3;
  ec.train = fast_config();
  ec.train.epochs = 2;
  const auto result = ZeroShotEvaluator{w.designs, w.dataset, ec}.run();
  BitHash h;
  for (const DesignEvaluation& row : result.rows) {
    for (const char c : row.design) {
      h.h = util::hash_combine(h.h, static_cast<std::uint64_t>(c));
    }
    for (const double v : {row.known_tns, row.known_power, row.known_score,
                           row.rec_tns, row.rec_power, row.rec_score,
                           row.win_pct}) {
      h.mix(v);
    }
    h.h = util::hash_combine(h.h, row.best_recipes.to_u64());
    for (const DataPoint& p : row.recommendations) {
      h.h = util::hash_combine(h.h, p.recipes.to_u64());
      for (const double v : {p.power, p.tns, p.score}) h.mix(v);
    }
  }
  h.mix(result.fold_train_accuracy);
  h.mix(result.fold_test_accuracy);
  EXPECT_EQ(h.h, 0x6317ce0ca2213bc2ULL) << std::hex << "0x" << h.h;
}

TEST(ZeroShotEvaluator, FoldAssignmentBalanced) {
  auto& w = world();
  EvalConfig ec;
  ec.folds = 3;
  ec.train = fast_config();
  const ZeroShotEvaluator ev{w.designs, w.dataset, ec};
  const auto folds = ev.fold_assignment();
  ASSERT_EQ(folds.size(), 3u);
  std::set<int> used(folds.begin(), folds.end());
  EXPECT_EQ(used.size(), 3u);  // 3 designs, 3 folds => all distinct
}

TEST(ZeroShotEvaluator, EvaluateDesignProducesSaneRow) {
  auto& w = world();
  util::Rng rng{67};
  RecipeModel model{ModelConfig{}, rng};
  TrainConfig tc = fast_config();
  AlignmentTrainer trainer{model, tc};
  const std::vector<std::size_t> train{0, 1};
  trainer.train(w.dataset, train);
  EvalConfig ec;
  ec.folds = 3;
  ec.train = tc;
  const ZeroShotEvaluator ev{w.designs, w.dataset, ec};
  const auto row = ev.evaluate_design(model, 2, /*beam_width=*/3);
  EXPECT_EQ(row.design, "twC");
  EXPECT_EQ(row.recommendations.size(), 3u);
  EXPECT_GE(row.win_pct, 0.0);
  EXPECT_LE(row.win_pct, 100.0);
  EXPECT_GT(row.rec_power, 0.0);
  // rec_score must be the max over recommendations.
  double best = -1e18;
  for (const auto& p : row.recommendations) best = std::max(best, p.score);
  EXPECT_DOUBLE_EQ(row.rec_score, best);
}

TEST(ZeroShotEvaluator, CvResultCacheRoundTrip) {
  CrossValidationResult result;
  DesignEvaluation row;
  row.design = "X";
  row.known_tns = 1.5;
  row.rec_power = 2.5;
  row.win_pct = 88.5;
  row.best_recipes = flow::RecipeSet::from_ids({1, 7});
  row.recommendations.push_back(
      {flow::RecipeSet::from_ids({1}), 3.0, 0.5, 0.9});
  result.rows.push_back(row);
  result.fold_train_accuracy = {0.8};
  result.fold_test_accuracy = {0.7};
  const std::string path =
      (std::filesystem::temp_directory_path() / "ia_cv_test.bin").string();
  ASSERT_TRUE(save_cv_result(result, path));
  const auto loaded = load_cv_result(path);
  ASSERT_TRUE(loaded.has_value());
  ASSERT_EQ(loaded->rows.size(), 1u);
  EXPECT_EQ(loaded->rows[0].design, "X");
  EXPECT_DOUBLE_EQ(loaded->rows[0].win_pct, 88.5);
  EXPECT_EQ(loaded->rows[0].best_recipes, row.best_recipes);
  ASSERT_EQ(loaded->rows[0].recommendations.size(), 1u);
  EXPECT_DOUBLE_EQ(loaded->rows[0].recommendations[0].power, 3.0);
  EXPECT_DOUBLE_EQ(loaded->fold_test_accuracy[0], 0.7);
  std::remove(path.c_str());
}

TEST(ZeroShotEvaluator, CvCacheRejectsTruncatedFile) {
  CrossValidationResult result;
  DesignEvaluation row;
  row.design = "X";
  row.recommendations.push_back(
      {flow::RecipeSet::from_ids({1}), 3.0, 0.5, 0.9});
  result.rows.push_back(row);
  result.fold_train_accuracy = {0.8};
  result.fold_test_accuracy = {0.7};
  const std::string path =
      (std::filesystem::temp_directory_path() / "ia_cv_trunc.bin").string();
  ASSERT_TRUE(save_cv_result(result, path));
  std::filesystem::resize_file(path,
                               std::filesystem::file_size(path) / 2);
  EXPECT_FALSE(load_cv_result(path).has_value());
  std::remove(path.c_str());
}

TEST(ZeroShotEvaluator, CvCacheSaveReportsUnwritableTarget) {
  const std::string blocker =
      (std::filesystem::temp_directory_path() / "ia_cv_blocker.bin").string();
  {
    std::ofstream os{blocker};
    os << "x";
  }
  EXPECT_FALSE(save_cv_result(CrossValidationResult{}, blocker + "/cv.bin"));
  std::remove(blocker.c_str());
}

}  // namespace
}  // namespace vpr::align
