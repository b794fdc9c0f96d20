#include "flow/eval.h"

#include <gtest/gtest.h>

#include <cstdio>
#include <filesystem>
#include <fstream>
#include <memory>
#include <sstream>
#include <string>
#include <vector>

namespace vpr::flow {
namespace {

netlist::DesignTraits eval_traits(const char* name, std::uint64_t seed) {
  netlist::DesignTraits t;
  t.name = name;
  t.target_cells = 400;
  t.clock_period_ns = 1.8;
  t.seed = seed;
  return t;
}

const Design& design_a() {
  static const Design d{eval_traits("evA", 9001)};
  return d;
}

const Design& design_b() {
  static const Design d{eval_traits("evB", 9002)};
  return d;
}

std::string temp_path(const char* name) {
  return (std::filesystem::temp_directory_path() / name).string();
}

TEST(FlowEval, MemoizedQorMatchesFreshFlowRun) {
  FlowEval eval{4};
  const auto rs = RecipeSet::from_ids({1, 8, 24});
  const Qor cached = eval.eval(design_a(), rs);
  const Qor fresh = Flow{design_a()}.run(rs).qor;
  EXPECT_DOUBLE_EQ(cached.power, fresh.power);
  EXPECT_DOUBLE_EQ(cached.tns, fresh.tns);
  EXPECT_DOUBLE_EQ(cached.wns, fresh.wns);
  EXPECT_DOUBLE_EQ(cached.area, fresh.area);
  EXPECT_EQ(cached.drcs, fresh.drcs);
}

TEST(FlowEval, CountsHitsAndMisses) {
  FlowEval eval{4};
  const auto rs1 = RecipeSet::from_ids({2, 9});
  const auto rs2 = RecipeSet::from_ids({3});
  (void)eval.eval(design_a(), rs1);  // miss
  (void)eval.eval(design_a(), rs1);  // hit
  (void)eval.eval(design_a(), rs2);  // miss
  (void)eval.eval(design_a(), rs1);  // hit
  const auto s = eval.stats();
  EXPECT_EQ(s.misses, 2u);
  EXPECT_EQ(s.hits, 2u);
  EXPECT_EQ(s.evaluations(), 2u);
  EXPECT_DOUBLE_EQ(s.hit_rate(), 0.5);
  EXPECT_GT(s.eval_seconds, 0.0);
  EXPECT_EQ(eval.size(), 2u);
}

TEST(FlowEval, SameRecipesOnDifferentDesignsAreDistinctKeys) {
  FlowEval eval{4};
  const auto rs = RecipeSet::from_ids({5});
  (void)eval.eval(design_a(), rs);
  (void)eval.eval(design_b(), rs);
  EXPECT_EQ(eval.stats().misses, 2u);
}

TEST(FlowEval, FingerprintSensitiveToTraits) {
  EXPECT_NE(FlowEval::fingerprint(design_a()),
            FlowEval::fingerprint(design_b()));
  // Same traits => same fingerprint (stable across Design instances).
  const Design twin{eval_traits("evA", 9001)};
  EXPECT_EQ(FlowEval::fingerprint(design_a()), FlowEval::fingerprint(twin));
}

TEST(FlowEval, ProbeRunsOncePerDesign) {
  FlowEval eval{4};
  const FlowResult& first = eval.probe(design_a());
  const FlowResult& second = eval.probe(design_a());
  EXPECT_EQ(&first, &second);
  const auto s = eval.stats();
  EXPECT_EQ(s.probe_misses, 1u);
  EXPECT_EQ(s.probe_hits, 1u);
}

TEST(FlowEval, ProbeIsEvictedWithItsWarmFlow) {
  // Probes live with the design's warm Flow, so probing more than
  // kMaxWarmFlows designs evicts the least recently used one; probing it
  // again re-runs the (deterministic) flow.
  FlowEval eval{4};
  std::vector<std::unique_ptr<Design>> designs;
  for (std::size_t i = 0; i <= FlowEval::kMaxWarmFlows; ++i) {
    netlist::DesignTraits t = eval_traits("evLru", 9100 + i);
    t.name += std::to_string(i);
    t.target_cells = 200;
    designs.push_back(std::make_unique<Design>(t));
  }
  const Qor oldest = eval.probe(*designs.front()).qor;
  for (std::size_t i = 1; i < designs.size(); ++i) {
    (void)eval.probe(*designs[i]);
  }
  EXPECT_EQ(eval.stats().probe_misses, designs.size());
  (void)eval.probe(*designs.back());  // still warm
  EXPECT_EQ(eval.stats().probe_hits, 1u);
  const Qor again = eval.probe(*designs.front()).qor;
  EXPECT_EQ(eval.stats().probe_misses, designs.size() + 1);
  EXPECT_EQ(again.wns, oldest.wns);
  EXPECT_EQ(again.tns, oldest.tns);
  EXPECT_EQ(again.hold_tns, oldest.hold_tns);
  EXPECT_EQ(again.power, oldest.power);
  EXPECT_EQ(again.area, oldest.area);
  EXPECT_EQ(again.drcs, oldest.drcs);
}

TEST(FlowEval, EvalManyPopulatesEverySlot) {
  FlowEval eval{4};
  std::vector<RecipeSet> sets;
  for (int i = 0; i < 12; ++i) sets.push_back(RecipeSet::from_ids({i, i + 8}));
  std::vector<Qor> out(sets.size());
  eval.eval_many(design_a(), sets,
                 [&](std::size_t i, const Qor& q) { out[i] = q; });
  for (std::size_t i = 0; i < sets.size(); ++i) {
    EXPECT_GT(out[i].power, 0.0) << i;
    EXPECT_DOUBLE_EQ(out[i].power, eval.eval(design_a(), sets[i]).power) << i;
  }
  EXPECT_EQ(eval.stats().misses, sets.size());
}

TEST(FlowEval, ClearDropsEntriesAndStats) {
  FlowEval eval{4};
  (void)eval.eval(design_a(), RecipeSet::from_ids({1}));
  eval.clear();
  EXPECT_EQ(eval.size(), 0u);
  EXPECT_EQ(eval.stats().misses, 0u);
}

TEST(FlowEval, DiskSpillRoundTrip) {
  const std::string path = temp_path("ia_floweval_test.bin");
  const auto rs1 = RecipeSet::from_ids({4, 11});
  const auto rs2 = RecipeSet::from_ids({7});
  Qor q1;
  Qor q2;
  {
    FlowEval eval{4};
    q1 = eval.eval(design_a(), rs1);
    q2 = eval.eval(design_b(), rs2);
    ASSERT_TRUE(eval.save_disk(path));
  }
  FlowEval warm{4};
  ASSERT_TRUE(warm.load_disk(path));
  EXPECT_EQ(warm.size(), 2u);
  EXPECT_DOUBLE_EQ(warm.eval(design_a(), rs1).power, q1.power);
  EXPECT_DOUBLE_EQ(warm.eval(design_b(), rs2).tns, q2.tns);
  // Both lookups were served from the loaded spill: zero evaluations.
  EXPECT_EQ(warm.stats().misses, 0u);
  EXPECT_EQ(warm.stats().hits, 2u);
  std::remove(path.c_str());
}

TEST(FlowEval, SaveDiskReportsUnwritableTarget) {
  // A regular file used as a directory component makes the target
  // unwritable even for root.
  const std::string blocker = temp_path("ia_floweval_blocker.bin");
  { std::ofstream os{blocker}; os << "x"; }
  FlowEval eval{4};
  (void)eval.eval(design_a(), RecipeSet::from_ids({1}));
  EXPECT_FALSE(eval.save_disk(blocker + "/nested/spill.bin"));
  std::remove(blocker.c_str());
}

TEST(FlowEval, LoadDiskRejectsMissingAndCorrupt) {
  FlowEval eval{4};
  EXPECT_FALSE(eval.load_disk("/nonexistent/floweval.bin"));
  const std::string path = temp_path("ia_floweval_corrupt.bin");
  { std::ofstream os{path, std::ios::binary}; os << "garbage bytes"; }
  EXPECT_FALSE(eval.load_disk(path));
  EXPECT_EQ(eval.size(), 0u);
  std::remove(path.c_str());
}

TEST(FlowEval, PrintStatsRendersTable) {
  FlowEval eval{4};
  (void)eval.eval(design_a(), RecipeSet::from_ids({1}));
  std::ostringstream os;
  eval.print_stats(os);
  EXPECT_NE(os.str().find("FlowEval"), std::string::npos);
  EXPECT_NE(os.str().find("hit rate"), std::string::npos);
}

TEST(FlowEval, SharedServiceIsSingleton) {
  EXPECT_EQ(&FlowEval::shared(), &FlowEval::shared());
}

}  // namespace
}  // namespace vpr::flow
