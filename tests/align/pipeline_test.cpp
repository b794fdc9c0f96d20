#include "align/pipeline.h"

#include <gtest/gtest.h>

#include <cmath>
#include <memory>
#include <optional>
#include <sstream>
#include <vector>

#include "align/beam.h"
#include "flow/eval.h"
#include "insight/insight.h"

namespace vpr::align {
namespace {

netlist::DesignTraits small_traits(const char* name, std::uint64_t seed,
                                   double period = 1.5) {
  netlist::DesignTraits t;
  t.name = name;
  t.target_cells = 450;
  t.clock_period_ns = period;
  t.seed = seed;
  return t;
}

struct World {
  flow::Design d1{small_traits("plA", 6001, 2.2)};
  flow::Design d2{small_traits("plB", 6002, 1.0)};
  flow::Design unseen{small_traits("plC", 6003, 1.6)};
};

World& world() {
  static World w;
  return w;
}

PipelineConfig fast_config() {
  PipelineConfig c;
  c.dataset.points_per_design = 14;
  c.dataset.seed = 313;
  c.train.epochs = 3;
  c.train.pairs_per_design = 40;
  c.beam_width = 3;
  c.tune_bootstrap_points = 8;
  return c;
}

Pipeline& fitted_pipeline() {
  static Pipeline pipeline = [] {
    Pipeline p{fast_config()};
    p.fit({&world().d1, &world().d2});
    return p;
  }();
  return pipeline;
}

TEST(Pipeline, FitTrainsModelOnArchive) {
  Pipeline p{fast_config()};
  EXPECT_FALSE(p.fitted());
  const auto metrics = p.fit({&world().d1, &world().d2});
  EXPECT_TRUE(p.fitted());
  EXPECT_GT(metrics.final_accuracy(), 0.55);
  EXPECT_EQ(p.dataset().size(), 2u);
}

TEST(Pipeline, RecommendForFittedDesignHasScores) {
  auto& p = fitted_pipeline();
  const auto recs = p.recommend(world().d1);
  ASSERT_EQ(recs.size(), 3u);  // beam_width default
  for (const auto& r : recs) {
    EXPECT_GT(r.power, 0.0);
    EXPECT_GE(r.tns, 0.0);
    EXPECT_LT(r.log_prob, 0.0);
    ASSERT_TRUE(r.score.has_value());
  }
}

TEST(Pipeline, RecommendForUnseenDesignOmitsScore) {
  auto& p = fitted_pipeline();
  const auto recs = p.recommend(world().unseen, 2);
  ASSERT_EQ(recs.size(), 2u);
  for (const auto& r : recs) {
    EXPECT_GT(r.power, 0.0);
    EXPECT_FALSE(r.score.has_value());
  }
}

TEST(Pipeline, MethodsRequireFit) {
  Pipeline p{fast_config()};
  EXPECT_THROW((void)p.recommend(world().d1), std::logic_error);
  OnlineConfig oc;
  EXPECT_THROW((void)p.tune(world().d1, oc), std::logic_error);
  EXPECT_THROW((void)p.dataset(), std::logic_error);
}

TEST(Pipeline, TuneOnFittedDesign) {
  Pipeline p{fast_config()};
  p.fit({&world().d1, &world().d2});
  OnlineConfig oc;
  oc.iterations = 2;
  oc.proposals_per_iteration = 3;
  oc.beam_width = 3;
  oc.dpo_pairs_per_iteration = 16;
  const auto result = p.tune(world().d1, oc);
  ASSERT_EQ(result.iterations.size(), 2u);
  EXPECT_EQ(result.iterations.front().evaluated.size(), 3u);
}

TEST(Pipeline, TuneOnUnseenDesignBootstraps) {
  Pipeline p{fast_config()};
  p.fit({&world().d1, &world().d2});
  OnlineConfig oc;
  oc.iterations = 2;
  oc.proposals_per_iteration = 3;
  oc.beam_width = 3;
  oc.dpo_pairs_per_iteration = 16;
  const auto result = p.tune(world().unseen, oc);
  ASSERT_EQ(result.iterations.size(), 2u);
  // Scores are finite thanks to the bootstrap archive normalization.
  EXPECT_TRUE(std::isfinite(result.last().best_score_so_far));
}

TEST(Pipeline, ModelSaveLoadRoundTrip) {
  auto& p = fitted_pipeline();
  std::stringstream ss;
  p.save_model(ss);
  Pipeline q{fast_config()};
  q.load_model(ss);
  EXPECT_EQ(p.model().state(), q.model().state());
}

TEST(Pipeline, DeterministicFit) {
  const auto run = [] {
    Pipeline p{fast_config()};
    p.fit({&world().d1, &world().d2});
    return p.model().state();
  };
  EXPECT_EQ(run(), run());
}

TEST(Pipeline, RecommendMatchesSerialValidationOfBeamCandidates) {
  // recommend validates its candidates concurrently; the result must equal
  // validating beam_search's candidates one by one, in order, on a
  // separate FlowEval that runs every flow itself.
  auto& p = fitted_pipeline();
  // d1 is in the fitted archive (insight from it, scored); unseen is not
  // (insight from a probe, no score).
  const std::optional<std::size_t> in_archive[] = {0, std::nullopt};
  const flow::Design* designs[] = {&world().d1, &world().unseen};
  ASSERT_EQ(p.dataset().design(0).name, world().d1.name());
  for (int d = 0; d < 2; ++d) {
    const flow::Design* design = designs[d];
    const auto idx = in_archive[d];
    const auto recs = p.recommend(*design, 3);
    flow::FlowEval serial;
    std::vector<double> iv;
    if (idx.has_value()) {
      iv = p.dataset().design(*idx).insight();
    } else {
      const auto vec = insight::analyze(*design, serial.probe(*design));
      iv.assign(vec.begin(), vec.end());
    }
    const auto candidates = beam_search(p.model(), iv, 3);
    ASSERT_EQ(recs.size(), candidates.size()) << design->name();
    for (std::size_t i = 0; i < candidates.size(); ++i) {
      const flow::Qor q = serial.eval(*design, candidates[i].recipes);
      EXPECT_EQ(recs[i].recipes, candidates[i].recipes) << i;
      EXPECT_EQ(recs[i].log_prob, candidates[i].log_prob) << i;
      EXPECT_EQ(recs[i].power, q.power) << i;
      EXPECT_EQ(recs[i].tns, q.tns) << i;
      if (idx.has_value()) {
        ASSERT_TRUE(recs[i].score.has_value());
        EXPECT_EQ(*recs[i].score,
                  p.dataset().design(*idx).score_of(q.power, q.tns))
            << i;
      } else {
        EXPECT_FALSE(recs[i].score.has_value());
      }
    }
  }
}

TEST(Pipeline, WarmRecommendIssuesNoNewEvaluations) {
  auto& p = fitted_pipeline();
  const auto first = p.recommend(world().d1, 3);
  auto& service = flow::FlowEval::shared();
  const auto before = service.stats();
  const auto second = p.recommend(world().d1, 3);
  const auto after = service.stats();
  // Beam search is deterministic, so every repeated recipe set resolves
  // from the memo: zero new Flow::run evaluations on the warm path.
  EXPECT_EQ(after.misses, before.misses);
  EXPECT_EQ(after.probe_misses, before.probe_misses);
  EXPECT_GT(after.hits, before.hits);
  ASSERT_EQ(second.size(), first.size());
  for (std::size_t i = 0; i < first.size(); ++i) {
    EXPECT_EQ(second[i].recipes, first[i].recipes);
    EXPECT_DOUBLE_EQ(second[i].power, first[i].power);
    EXPECT_DOUBLE_EQ(second[i].tns, first[i].tns);
  }
}

TEST(Pipeline, WarmRecommendOnUnseenDesignSkipsProbe) {
  auto& p = fitted_pipeline();
  (void)p.recommend(world().unseen, 2);
  auto& service = flow::FlowEval::shared();
  const auto before = service.stats();
  (void)p.recommend(world().unseen, 2);
  const auto after = service.stats();
  EXPECT_EQ(after.misses, before.misses);
  EXPECT_EQ(after.probe_misses, before.probe_misses);
}

}  // namespace
}  // namespace vpr::align
