// Property sweep: every one of the 40 recipes, applied alone, must run the
// full flow to completion with sane QoR, deterministically, on both an
// easy-timing and a tight-timing design. This is the regression net for
// recipe/knob/engine couplings.

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <variant>

#include "flow/flow.h"
#include "obs/trace.h"
#include "place/placer.h"

namespace vpr::flow {
namespace {

const Design& easy_design() {
  static const Design d{[] {
    netlist::DesignTraits t;
    t.name = "sweep_easy";
    t.target_cells = 500;
    t.logic_depth = 6;
    t.clock_period_ns = 4.0;
    t.seed = 2468;
    return t;
  }()};
  return d;
}

const Design& tight_design() {
  static const Design d{[] {
    netlist::DesignTraits t;
    t.name = "sweep_tight";
    t.target_cells = 500;
    t.logic_depth = 9;
    t.clock_period_ns = 0.8;
    t.hold_sensitivity = 0.4;
    t.skew_sensitivity = 0.5;
    t.seed = 2469;
    return t;
  }()};
  return d;
}

class SingleRecipeSweep : public ::testing::TestWithParam<int> {};

TEST_P(SingleRecipeSweep, RunsCleanOnEasyDesign) {
  const Flow flow{easy_design()};
  RecipeSet rs;
  rs.set(GetParam());
  const FlowResult r = flow.run(rs);
  EXPECT_GT(r.qor.power, 0.0);
  EXPECT_GE(r.qor.tns, 0.0);
  EXPECT_GE(r.qor.hold_tns, 0.0);
  EXPECT_GT(r.qor.area, 0.0);
  EXPECT_GE(r.qor.drcs, 0);
  EXPECT_TRUE(std::isfinite(r.qor.power));
  EXPECT_TRUE(std::isfinite(r.qor.tns));
}

TEST_P(SingleRecipeSweep, RunsCleanOnTightDesign) {
  const Flow flow{tight_design()};
  RecipeSet rs;
  rs.set(GetParam());
  const FlowResult r = flow.run(rs);
  EXPECT_GT(r.qor.power, 0.0);
  EXPECT_TRUE(std::isfinite(r.qor.tns));
  // The flow must never lose cells.
  EXPECT_GE(r.final_cell_count, tight_design().netlist().cell_count());
}

TEST_P(SingleRecipeSweep, Deterministic) {
  const Flow flow{tight_design()};
  RecipeSet rs;
  rs.set(GetParam());
  const FlowResult a = flow.run(rs);
  const FlowResult b = flow.run(rs);
  EXPECT_DOUBLE_EQ(a.qor.power, b.qor.power);
  EXPECT_DOUBLE_EQ(a.qor.tns, b.qor.tns);
}

INSTANTIATE_TEST_SUITE_P(
    AllRecipes, SingleRecipeSweep, ::testing::Range(0, kNumRecipes),
    [](const ::testing::TestParamInfo<int>& info) {
      return recipe_catalog()[static_cast<std::size_t>(info.param)].name;
    });

TEST(RecipeSweep, AllRecipesTogetherStillCompletes) {
  // The kitchen-sink set: every recipe at once. Knob clamps must keep the
  // flow legal even under maximal (conflicting) adjustments.
  RecipeSet all;
  for (int i = 0; i < kNumRecipes; ++i) all.set(i);
  const Flow flow{tight_design()};
  const FlowResult r = flow.run(all);
  EXPECT_GT(r.qor.power, 0.0);
  EXPECT_TRUE(std::isfinite(r.qor.tns));
}

TEST(RecipeSweep, AllRecipesPlacementTracesEveryMapPass) {
  // Each spread step rebuilds the maps once up front and once after each
  // of its passes, and each rebuild is one place.maps span.
  RecipeSet all;
  for (int i = 0; i < kNumRecipes; ++i) all.set(i);
  const Flow flow{tight_design()};
  const place::PlacerKnobs knobs = flow.resolve_knobs(all).place;
  const netlist::Netlist& nl = tight_design().netlist();
  auto& recorder = obs::TraceRecorder::instance();
  recorder.clear();
  recorder.set_enabled(true);
  place::Placer placer{nl, knobs, 11};
  (void)placer.run();
  recorder.set_enabled(false);
  int maps = 0;
  for (const obs::TraceEvent& e : recorder.snapshot()) {
    if (e.name != "place.maps") continue;
    ++maps;
    ASSERT_EQ(e.args.size(), 2u);
    EXPECT_EQ(e.args[0].key, "cells");
    EXPECT_EQ(std::get<std::int64_t>(e.args[0].value), nl.cell_count());
    EXPECT_EQ(e.args[1].key, "nets");
    EXPECT_EQ(std::get<std::int64_t>(e.args[1].value), nl.net_count());
  }
  recorder.clear();
  const int passes = 1 + static_cast<int>(std::lround(
                             2.0 * std::clamp(knobs.congestion_effort, 0.0,
                                              1.0)));
  EXPECT_GT(knobs.iterations, 0);
  EXPECT_EQ(maps, knobs.iterations * (passes + 1));
}

}  // namespace
}  // namespace vpr::flow
