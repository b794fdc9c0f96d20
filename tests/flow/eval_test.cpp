#include "flow/eval.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <memory>
#include <string>
#include <thread>
#include <variant>
#include <vector>

#include "obs/trace.h"

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

TEST(FlowEval, MemoizedQorMatchesFreshFlowRun) {
  FlowEval eval;
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
  FlowEval eval;
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
  FlowEval eval;
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
  FlowEval eval;
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
  FlowEval eval;
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

TEST(FlowEval, EvalSecondsIsTheSumOfFlowRunSpans) {
  // eval_seconds books the flow runs alone, from the clock reads of their
  // flow.run spans: building a fresh design's warm Flow on its first miss
  // is not flow time.
  FlowEval eval;
  auto& recorder = obs::TraceRecorder::instance();
  recorder.clear();
  recorder.set_enabled(true);
  for (std::uint64_t i = 0; i < 3; ++i) {
    netlist::DesignTraits t = eval_traits("evClock", 9200 + i);
    t.name += std::to_string(i);
    const Design design{t};
    (void)eval.eval(design, RecipeSet::from_ids({4}));
    (void)eval.eval(design, RecipeSet::from_ids({4, 12}));
    (void)eval.probe(design);
  }
  recorder.set_enabled(false);
  std::int64_t span_us = 0;
  std::uint64_t runs = 0;
  for (const obs::TraceEvent& e : recorder.snapshot()) {
    if (e.name != "flow.run") continue;
    span_us += e.dur_us;
    ++runs;
  }
  recorder.clear();
  const FlowEvalStats s = eval.stats();
  ASSERT_EQ(runs, s.evaluations());
  ASSERT_EQ(runs, 9u);
  // A span's duration is truncated to whole microseconds.
  EXPECT_NEAR(s.eval_seconds * 1e6, static_cast<double>(span_us),
              static_cast<double>(runs));
}

TEST(FlowEval, EvalManyPopulatesEverySlot) {
  // Every set appears 4 times, one whole copy after another, so pool
  // participants request the same keys at once; each key must still run
  // the flow exactly once.
  constexpr std::size_t kUnique = 12;
  constexpr std::size_t kCopies = 4;
  FlowEval eval;
  std::vector<RecipeSet> sets;
  for (std::size_t c = 0; c < kCopies; ++c) {
    for (std::size_t i = 0; i < kUnique; ++i) {
      const int id = static_cast<int>(i);
      sets.push_back(RecipeSet::from_ids({id, id + 8}));
    }
  }
  std::vector<Qor> out(sets.size());
  eval.eval_many(design_a(), sets,
                 [&](std::size_t i, const Qor& q) { out[i] = q; });
  const FlowEvalStats s = eval.stats();
  EXPECT_EQ(s.misses, kUnique);
  EXPECT_EQ(s.hits, kUnique * (kCopies - 1));
  EXPECT_EQ(eval.size(), kUnique);
  for (std::size_t i = 0; i < sets.size(); ++i) {
    EXPECT_GT(out[i].power, 0.0) << i;
    EXPECT_DOUBLE_EQ(out[i].power, eval.eval(design_a(), sets[i]).power) << i;
    EXPECT_EQ(out[i].power, out[i % kUnique].power) << i;
  }
}

int recipe_id(const std::string& name) {
  const auto& catalog = recipe_catalog();
  for (const Recipe& r : catalog) {
    if (r.name == name) return r.id;
  }
  ADD_FAILURE() << "no recipe " << name;
  return 0;
}

/// A and its variants A', A'', A''' differ only in optimization recipes,
/// so they resolve to the same placer knobs and share one memoized
/// placement; E adds place_iterations_deep, a placement of its own. The
/// design is larger than design_a() to keep a placement long next to a
/// pool worker's wake-up, even on a loaded host.
struct PlacementBatch {
  Design design{[] {
    netlist::DesignTraits traits = eval_traits("evOrder", 9003);
    traits.target_cells = 4000;
    return traits;
  }()};
  std::vector<RecipeSet> sets = {
      RecipeSet::from_ids({recipe_id("setup_focus")}),
      RecipeSet::from_ids(
          {recipe_id("setup_focus"), recipe_id("place_iterations_deep")}),
      RecipeSet::from_ids(
          {recipe_id("setup_focus"), recipe_id("hold_aggressive")}),
      RecipeSet::from_ids(
          {recipe_id("setup_focus"), recipe_id("power_recovery_deep")}),
      RecipeSet::from_ids(
          {recipe_id("setup_focus"), recipe_id("leakage_focus")}),
  };

  /// eval_many over `sets` with tracing on; returns the trace.
  std::vector<obs::TraceEvent> traced_eval_many(FlowEval& eval,
                                                std::vector<Qor>& out) const {
    out.assign(sets.size(), Qor{});
    auto& recorder = obs::TraceRecorder::instance();
    recorder.clear();
    recorder.set_enabled(true);
    eval.eval_many(design, sets,
                   [&](std::size_t i, const Qor& q) { out[i] = q; });
    recorder.set_enabled(false);
    std::vector<obs::TraceEvent> events = recorder.snapshot();
    recorder.clear();
    return events;
  }

  /// Every slot of `out` equals a plain eval() of its set.
  void expect_slots_match_eval(FlowEval& eval,
                               const std::vector<Qor>& out) const {
    for (std::size_t i = 0; i < sets.size(); ++i) {
      const Qor q = eval.eval(design, sets[i]);
      EXPECT_EQ(out[i].power, q.power) << i;
      EXPECT_EQ(out[i].tns, q.tns) << i;
      EXPECT_EQ(out[i].wns, q.wns) << i;
      EXPECT_EQ(out[i].area, q.area) << i;
      EXPECT_EQ(out[i].drcs, q.drcs) << i;
    }
  }
};

TEST(FlowEval, EvalManyStartsEachDistinctPlacementFirst) {
  if (std::thread::hardware_concurrency() < 2) {
    GTEST_SKIP() << "needs a second pool participant";
  }
  // In input order the pool's contiguous ranges would give every
  // participant an A set first, so all of them would run or wait on A's
  // placement and E would start only after that placement ends.
  const PlacementBatch batch;
  const auto& sets = batch.sets;
  FlowEval eval;
  std::vector<Qor> out;
  const std::vector<obs::TraceEvent> events =
      batch.traced_eval_many(eval, out);

  const obs::TraceEvent* a = nullptr;
  const obs::TraceEvent* e = nullptr;
  std::int64_t first_placement_end = INT64_MAX;
  for (const obs::TraceEvent& ev : events) {
    if (ev.name == "place.run") {
      first_placement_end =
          std::min(first_placement_end, ev.ts_us + ev.dur_us);
    }
    if (ev.name != "flow.eval.miss") continue;
    for (const obs::TraceArg& arg : ev.args) {
      if (arg.key != "recipes") continue;
      const auto& recipes = std::get<std::string>(arg.value);
      if (recipes == sets[0].to_string()) a = &ev;
      if (recipes == sets[1].to_string()) e = &ev;
    }
  }
  ASSERT_NE(a, nullptr);
  ASSERT_NE(e, nullptr);
  EXPECT_LT(e->ts_us, a->ts_us + a->dur_us) << "E started after A ended";
  // The first placement to end is A's (E's runs more iterations), and E
  // must not have waited for it.
  EXPECT_LT(e->ts_us, first_placement_end)
      << "E started after A's placement ended";
  batch.expect_slots_match_eval(eval, out);
}

TEST(FlowEval, EvalManyNeverWaitsOnAPlacement) {
  // A' to A''' start once A's placement is ready, so no run of the batch
  // blocks on another run's memo entry.
  const PlacementBatch batch;
  FlowEval eval;
  std::vector<Qor> out;
  for (const obs::TraceEvent& ev : batch.traced_eval_many(eval, out)) {
    if (ev.name != "flow.memo.wait") continue;
    ADD_FAILURE() << "waited on a memo entry, stage "
                  << std::get<std::string>(ev.args.at(0).value);
  }
  batch.expect_slots_match_eval(eval, out);
}

TEST(FlowEval, ClearDropsEntriesAndStats) {
  FlowEval eval;
  (void)eval.eval(design_a(), RecipeSet::from_ids({1}));
  eval.clear();
  EXPECT_EQ(eval.size(), 0u);
  EXPECT_EQ(eval.stats().misses, 0u);
}

TEST(FlowEval, SharedServiceIsSingleton) {
  EXPECT_EQ(&FlowEval::shared(), &FlowEval::shared());
}

}  // namespace
}  // namespace vpr::flow
