#include "align/evaluator.h"

#include <gtest/gtest.h>

#include <cstdlib>
#include <memory>
#include <numeric>
#include <set>

#include "util/serialize.h"

namespace vpr::align {
namespace {

struct World {
  std::vector<std::unique_ptr<flow::Design>> owned;
  std::vector<const flow::Design*> designs;
  OfflineDataset dataset;

  World() {
    for (int i = 0; i < 5; ++i) {
      netlist::DesignTraits t;
      t.name = "ev" + std::to_string(i);
      t.target_cells = 420;
      t.clock_period_ns = 1.2 + 0.4 * i;
      t.seed = 7100 + static_cast<std::uint64_t>(i);
      owned.push_back(std::make_unique<flow::Design>(t));
      designs.push_back(owned.back().get());
    }
    DatasetConfig dc;
    dc.points_per_design = 10;
    dc.expert_points = 3;
    dc.seed = 4242;
    dataset = OfflineDataset::build(designs, dc);
  }
};

World& world() {
  static World w;
  return w;
}

EvalConfig config(int folds) {
  EvalConfig ec;
  ec.folds = folds;
  ec.train.epochs = 2;
  ec.train.pairs_per_design = 24;
  return ec;
}

/// Property sweep over fold counts: every design lands in exactly one
/// fold, every fold is non-empty, assignment is deterministic.
class FoldSweep : public ::testing::TestWithParam<int> {};

TEST_P(FoldSweep, PartitionIsCompleteAndDeterministic) {
  auto& w = world();
  const ZeroShotEvaluator ev{w.designs, w.dataset, config(GetParam())};
  const auto folds = ev.fold_assignment();
  ASSERT_EQ(folds.size(), w.designs.size());
  std::set<int> used;
  for (const int f : folds) {
    EXPECT_GE(f, 0);
    EXPECT_LT(f, GetParam());
    used.insert(f);
  }
  EXPECT_EQ(used.size(), static_cast<std::size_t>(GetParam()));
  const ZeroShotEvaluator ev2{w.designs, w.dataset, config(GetParam())};
  EXPECT_EQ(ev2.fold_assignment(), folds);
}

INSTANTIATE_TEST_SUITE_P(Folds, FoldSweep, ::testing::Values(2, 3, 5));

TEST(ZeroShotEvaluatorConfig, RejectsBadFoldCounts) {
  auto& w = world();
  EXPECT_THROW(ZeroShotEvaluator(w.designs, w.dataset, config(1)),
               std::invalid_argument);
  EXPECT_THROW(ZeroShotEvaluator(w.designs, w.dataset, config(6)),
               std::invalid_argument);
}

TEST(ZeroShotEvaluatorConfig, RejectsMismatchedDatasets) {
  auto& w = world();
  std::vector<const flow::Design*> fewer(w.designs.begin(),
                                         w.designs.end() - 1);
  EXPECT_THROW(ZeroShotEvaluator(fewer, w.dataset, config(2)),
               std::invalid_argument);
}

TEST(CacheDir, HonorsEnvironmentOverride) {
  ::setenv("INSIGHTALIGN_CACHE_DIR", "/tmp/ia_custom_cache", 1);
  EXPECT_EQ(util::cache_dir(), "/tmp/ia_custom_cache");
  ::unsetenv("INSIGHTALIGN_CACHE_DIR");
  EXPECT_EQ(util::cache_dir(), "insightalign_cache");
}

}  // namespace
}  // namespace vpr::align
