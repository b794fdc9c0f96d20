// Flow::run (incremental STA, placement + route memo) vs
// Flow::run_reference (fresh TimingAnalyzer per STA call, fresh placer and
// router every run) must produce bit-for-bit identical results: the
// incremental timer and the memo are pure optimizations. The memo cases
// observe hits through the `memo_hit` arg of the flow.route trace span.
// Also sanity-checks the per-stage wall-clock timers.

#include <gtest/gtest.h>

#include <algorithm>
#include <string>
#include <thread>
#include <variant>
#include <vector>

#include "flow/flow.h"
#include "flow/recipe.h"
#include "netlist/suite.h"
#include "obs/trace.h"
#include "util/rng.h"

namespace vpr::flow {
namespace {

void expect_qor_equal(const Qor& a, const Qor& b, const std::string& what) {
  EXPECT_EQ(a.wns, b.wns) << what;
  EXPECT_EQ(a.tns, b.tns) << what;
  EXPECT_EQ(a.hold_tns, b.hold_tns) << what;
  EXPECT_EQ(a.power, b.power) << what;
  EXPECT_EQ(a.area, b.area) << what;
  EXPECT_EQ(a.drcs, b.drcs) << what;
}

/// Routing and signoff agree bit-for-bit, not just the QoR scalars.
void expect_result_equal(const FlowResult& a, const FlowResult& b,
                         const std::string& what) {
  expect_qor_equal(a.qor, b.qor, what);
  EXPECT_EQ(a.routing.net_length, b.routing.net_length) << what;
  EXPECT_EQ(a.routing.total_wirelength, b.routing.total_wirelength) << what;
  EXPECT_EQ(a.routing.overflow_edges, b.routing.overflow_edges) << what;
  EXPECT_EQ(a.routing.round_overflow_edges, b.routing.round_overflow_edges)
      << what;
  EXPECT_EQ(a.place_hpwl, b.place_hpwl) << what;
  EXPECT_EQ(a.final_timing.wns, b.final_timing.wns) << what;
  EXPECT_EQ(a.final_cell_count, b.final_cell_count) << what;
}

/// flow.run(rs) with tracing on; `memo_hit` is the flow.route span's arg.
struct TracedRun {
  FlowResult result;
  bool memo_hit = false;
};

TracedRun run_traced(const Flow& flow, const RecipeSet& rs) {
  auto& recorder = obs::TraceRecorder::instance();
  recorder.clear();
  recorder.set_enabled(true);
  TracedRun out{flow.run(rs)};
  recorder.set_enabled(false);
  int route_spans = 0;
  for (const obs::TraceEvent& e : recorder.snapshot()) {
    if (e.name != "flow.route") continue;
    ++route_spans;
    for (const obs::TraceArg& arg : e.args) {
      if (arg.key == "memo_hit") {
        out.memo_hit = std::get<std::int64_t>(arg.value) == 1;
      }
    }
  }
  recorder.clear();
  EXPECT_EQ(route_spans, 1);
  return out;
}

/// Runs `rs` warm, checks it against the oracle, and returns whether the
/// routing came from the memo.
bool run_matches_reference(const Flow& flow, const RecipeSet& rs) {
  const TracedRun warm = run_traced(flow, rs);
  expect_result_equal(warm.result, flow.run_reference(rs),
                      "recipes=" + rs.to_string());
  return warm.memo_hit;
}

int recipe_id(const std::string& name) {
  for (const Recipe& r : recipe_catalog()) {
    if (r.name == name) return r.id;
  }
  ADD_FAILURE() << "no recipe " << name;
  return 0;
}

/// Deterministic sample of `count` recipe sets spanning empty, dense and
/// random subsets (seeded per caller so designs see different sets).
std::vector<RecipeSet> sample_recipe_sets(int count, std::uint64_t seed) {
  std::vector<RecipeSet> sets;
  sets.emplace_back();  // default flow
  util::Rng rng{seed};
  while (static_cast<int>(sets.size()) < count) {
    std::vector<int> bits(kNumRecipes, 0);
    const int picks = rng.uniform_int(1, 6);
    for (int j = 0; j < picks; ++j) {
      bits[static_cast<std::size_t>(rng.uniform_int(0, kNumRecipes - 1))] = 1;
    }
    sets.push_back(RecipeSet::from_bits(bits));
  }
  return sets;
}

TEST(FlowEquiv, SmallDesignManyRecipeSets) {
  netlist::DesignTraits t;
  t.name = "equiv";
  t.target_cells = 700;
  t.clock_period_ns = 1.1;
  t.logic_depth = 11;
  t.hold_sensitivity = 0.4;  // exercise hold buffering (netlist appends)
  t.seed = 0xfa57ULL;
  const Design design{t};
  const Flow flow{design};
  for (const RecipeSet& rs : sample_recipe_sets(24, 0x5a3eULL)) {
    const FlowResult fast = flow.run(rs);
    const FlowResult ref = flow.run_reference(rs);
    expect_qor_equal(fast.qor, ref.qor, "recipes=" + rs.to_string());
    // The full signoff report must agree too, not just the QoR scalars.
    EXPECT_EQ(fast.final_timing.wns, ref.final_timing.wns);
    EXPECT_EQ(fast.final_timing.hold_wns, ref.final_timing.hold_wns);
    EXPECT_EQ(fast.final_timing.max_arrival, ref.final_timing.max_arrival);
    EXPECT_EQ(fast.pre_opt_timing.tns, ref.pre_opt_timing.tns);
    EXPECT_EQ(fast.final_cell_count, ref.final_cell_count);
    EXPECT_EQ(fast.routing.total_wirelength, ref.routing.total_wirelength);
  }
}

TEST(FlowEquiv, AllSuiteDesignsSampledRecipeSets) {
  // Successive recipe sets on one Flow hit the warm path (placement and
  // route memo), and every warm result must match the cold run_reference
  // oracle bit-for-bit. The small, medium and largest designs (D11, D10,
  // D17) also run one fixed mix of setup, hold, route-effort and power
  // recovery recipes.
  for (int k = 1; k <= netlist::kSuiteSize; ++k) {
    const Design design{netlist::suite_design(k)};
    const Flow flow{design};
    std::vector<RecipeSet> sets =
        sample_recipe_sets(3, 0xd00dULL + static_cast<std::uint64_t>(k));
    if (k == 10 || k == 11 || k == 17) {
      sets.push_back(RecipeSet::from_ids({1, 9, 10, 24, 33}));
    }
    for (const RecipeSet& rs : sets) {
      const FlowResult fast = flow.run(rs);
      const FlowResult ref = flow.run_reference(rs);
      expect_qor_equal(fast.qor, ref.qor,
                       design.name() + " recipes=" + rs.to_string());
      EXPECT_EQ(fast.routing.total_wirelength, ref.routing.total_wirelength);
      EXPECT_EQ(fast.routing.overflow_edges, ref.routing.overflow_edges);
      EXPECT_EQ(fast.final_cell_count, ref.final_cell_count);
    }
  }
}

TEST(FlowEquiv, RepeatedRecipeSetHitsRouteMemo) {
  const Design design{netlist::suite_design(3)};
  const Flow flow{design};
  const RecipeSet rs = RecipeSet::from_ids({1});
  EXPECT_FALSE(run_matches_reference(flow, rs));
  EXPECT_TRUE(run_matches_reference(flow, rs));
  EXPECT_TRUE(run_matches_reference(flow, rs));
}

TEST(FlowEquiv, RouteOnlyRecipeReroutesOnMemoizedPlacement) {
  // These recipes touch only knobs.route, so every run below shares the
  // default placement; each new router-knob set routes fresh and is kept
  // next to the others on that one placement entry.
  const Design design{netlist::suite_design(5)};
  const Flow flow{design};
  const std::vector<RecipeSet> route_only{
      RecipeSet{},
      RecipeSet::from_ids({recipe_id("route_effort_high")}),
      RecipeSet::from_ids({recipe_id("capacity_margin"),
                           recipe_id("extra_route_rounds")}),
  };
  for (const RecipeSet& rs : route_only) {
    EXPECT_EQ(flow.resolve_knobs(rs).place, flow.resolve_knobs({}).place);
    EXPECT_FALSE(run_matches_reference(flow, rs)) << rs.to_string();
  }
  for (const RecipeSet& rs : route_only) {
    EXPECT_TRUE(run_matches_reference(flow, rs)) << rs.to_string();
  }
}

TEST(FlowEquiv, TimingDrivenPlaceRoutesTheFinalPlacement) {
  // Timing-driven placement calls make_placement twice; the route memo
  // must hang off the second (final) placement. Seven placement-only sets
  // fill the 8-entry memo and evict td's first placement, so the re-run
  // places twice more, and its second make_placement evicts and appends
  // after the first one has already taken a memo entry.
  const Design design{netlist::suite_design(4)};
  const Flow flow{design};
  const RecipeSet td = RecipeSet::from_ids({recipe_id("timing_driven_place")});
  ASSERT_TRUE(flow.resolve_knobs(td).timing_driven_place);
  EXPECT_FALSE(run_matches_reference(flow, td));
  EXPECT_TRUE(run_matches_reference(flow, td));
  for (const char* name :
       {"density_relax", "density_pack", "place_iterations_deep",
        "placement_explore", "place_congestion_spread", "area_frugal",
        "congestion_combo"}) {
    EXPECT_FALSE(
        run_matches_reference(flow, RecipeSet::from_ids({recipe_id(name)})))
        << name;
  }
  EXPECT_FALSE(run_matches_reference(flow, td));
  EXPECT_TRUE(run_matches_reference(flow, td));
  // Same final placement knobs plus a route-only recipe: placement hit,
  // route miss.
  const RecipeSet td_route = RecipeSet::from_ids(
      {recipe_id("timing_driven_place"), recipe_id("fast_route")});
  EXPECT_FALSE(run_matches_reference(flow, td_route));
  EXPECT_TRUE(run_matches_reference(flow, td_route));
}

TEST(FlowEquiv, EvictedPlacementDropsItsRoutes) {
  // Ten distinct placements overflow the 8-entry placement memo; the
  // least recently used placement goes, and its routes with it.
  const Design design{netlist::suite_design(11)};
  const Flow flow{design};
  std::vector<RecipeSet> sets;
  for (const char* name :
       {"density_relax", "density_pack", "place_iterations_deep",
        "placement_explore", "place_congestion_spread", "area_frugal",
        "congestion_combo"}) {
    sets.push_back(RecipeSet::from_ids({recipe_id(name)}));
  }
  sets.push_back(RecipeSet::from_ids(
      {recipe_id("density_relax"), recipe_id("placement_explore")}));
  sets.push_back(RecipeSet::from_ids(
      {recipe_id("density_pack"), recipe_id("place_iterations_deep")}));
  sets.push_back(RecipeSet::from_ids(
      {recipe_id("area_frugal"), recipe_id("place_congestion_spread")}));
  for (std::size_t i = 0; i < sets.size(); ++i) {
    for (std::size_t j = 0; j < i; ++j) {
      ASSERT_FALSE(flow.resolve_knobs(sets[i]).place ==
                   flow.resolve_knobs(sets[j]).place)
          << sets[i].to_string() << " vs " << sets[j].to_string();
    }
  }
  for (const RecipeSet& rs : sets) {
    EXPECT_FALSE(run_matches_reference(flow, rs)) << rs.to_string();
  }
  // The newest placement is still memoized with its route; the oldest was
  // evicted and routes from scratch again.
  EXPECT_TRUE(run_matches_reference(flow, sets.back()));
  EXPECT_FALSE(run_matches_reference(flow, sets.front()));
  EXPECT_TRUE(run_matches_reference(flow, sets.front()));
}

TEST(FlowEquiv, ConcurrentRunsOnOneFlowClaimEachRouteOnce) {
  // Threads run overlapping recipe sets on one Flow at once. The sets
  // share the default placement (or the timing-driven one) and differ in
  // knobs.route; some differ only in optimization knobs and so share a
  // route key with another set. Each placement and route is claimed once:
  // concurrent runs with the same key wait for it instead of recomputing,
  // so exactly one run per distinct route key routes from scratch.
  const Design design{netlist::suite_design(11)};
  const Flow flow{design};
  const int td = recipe_id("timing_driven_place");
  const std::vector<RecipeSet> sets{
      RecipeSet{},
      RecipeSet::from_ids({recipe_id("route_effort_high")}),
      RecipeSet::from_ids({recipe_id("route_effort_high"),
                           recipe_id("power_recovery_deep")}),
      RecipeSet::from_ids({recipe_id("capacity_margin"),
                           recipe_id("extra_route_rounds")}),
      RecipeSet::from_ids({recipe_id("fast_route")}),
      RecipeSet::from_ids({td}),
      RecipeSet::from_ids({td, recipe_id("power_recovery_deep")}),
      RecipeSet::from_ids({td, recipe_id("fast_route")}),
  };
  std::vector<std::pair<bool, route::RouterKnobs>> route_keys;
  for (const RecipeSet& rs : sets) {
    const FlowKnobs k = flow.resolve_knobs(rs);
    EXPECT_EQ(k.place,
              flow.resolve_knobs(k.timing_driven_place
                                     ? RecipeSet::from_ids({td})
                                     : RecipeSet{})
                  .place)
        << rs.to_string();
    const std::pair<bool, route::RouterKnobs> key{k.timing_driven_place,
                                                  k.route};
    if (std::find(route_keys.begin(), route_keys.end(), key) ==
        route_keys.end()) {
      route_keys.push_back(key);
    }
  }
  ASSERT_LT(route_keys.size(), sets.size());  // some sets share a key

  constexpr std::size_t kThreads = 4;
  // results[t][i]: thread t's run of sets[i].
  std::vector<std::vector<FlowResult>> results(
      kThreads, std::vector<FlowResult>(sets.size()));
  auto& recorder = obs::TraceRecorder::instance();
  recorder.clear();
  recorder.set_enabled(true);
  {
    std::vector<std::thread> threads;
    for (std::size_t t = 0; t < kThreads; ++t) {
      threads.emplace_back([&, t] {
        // Each thread runs every set, starting at its own offset.
        for (std::size_t n = 0; n < sets.size(); ++n) {
          const std::size_t i = (n + 3 * t) % sets.size();
          results[t][i] = flow.run(sets[i]);
        }
      });
    }
    for (auto& th : threads) th.join();
  }
  recorder.set_enabled(false);
  std::size_t routed = 0;
  std::size_t route_spans = 0;
  const std::vector<obs::TraceEvent> events = recorder.snapshot();
  for (const obs::TraceEvent& e : events) {
    if (e.name != "flow.route") continue;
    ++route_spans;
    for (const obs::TraceArg& arg : e.args) {
      if (arg.key == "memo_hit" && std::get<std::int64_t>(arg.value) == 0) {
        ++routed;
      }
    }
  }
  EXPECT_EQ(route_spans, kThreads * sets.size());
  EXPECT_EQ(routed, route_keys.size());
  // A run blocked on an entry another run claimed records the wait inside
  // its own place/route stage span. How many runs block depends on the
  // scheduler (a few per run of this test on 4 cores), so only where the
  // waits lie is checked.
  for (const obs::TraceEvent& w : events) {
    if (w.name != "flow.memo.wait") continue;
    ASSERT_EQ(w.args.size(), 1u);
    const std::string stage = std::get<std::string>(w.args[0].value);
    const auto encloses = [&](const obs::TraceEvent& e) {
      const bool stage_span = stage == "route"
                                  ? e.name == "flow.route"
                                  : e.name.rfind("flow.place", 0) == 0;
      return stage_span && e.tid == w.tid && e.ts_us <= w.ts_us &&
             w.ts_us + w.dur_us <= e.ts_us + e.dur_us;
    };
    EXPECT_TRUE(std::any_of(events.begin(), events.end(), encloses))
        << "stage=" << stage << " ts=" << w.ts_us;
  }
  // One more run finds every entry ready and unlocked: it waits on nothing.
  recorder.clear();
  recorder.set_enabled(true);
  (void)flow.run(sets[0]);
  recorder.set_enabled(false);
  for (const obs::TraceEvent& e : recorder.snapshot()) {
    EXPECT_NE(e.name, "flow.memo.wait");
  }
  recorder.clear();

  for (std::size_t i = 0; i < sets.size(); ++i) {
    const FlowResult ref = flow.run_reference(sets[i]);
    for (std::size_t t = 0; t < kThreads; ++t) {
      expect_result_equal(results[t][i], ref,
                          "thread " + std::to_string(t) +
                              " recipes=" + sets[i].to_string());
    }
  }
}

TEST(FlowEquiv, StageTimersArePopulated) {
  const Design design{netlist::suite_design(11)};
  const Flow flow{design};
  const FlowResult r = flow.run(RecipeSet::from_ids({1, 10}));
  const StageTimes& t = r.stage_times;
  EXPECT_GT(t.total_ms, 0.0);
  EXPECT_GT(t.place_ms, 0.0);
  EXPECT_GT(t.cts_ms, 0.0);
  EXPECT_GT(t.route_ms, 0.0);
  EXPECT_GT(t.sta_ms, 0.0);
  EXPECT_GE(t.opt_ms, 0.0);
  EXPECT_GE(t.power_ms, 0.0);
  // The stages partition a subset of the run: their sum cannot exceed the
  // total (up to timer granularity).
  const double sum = t.place_ms + t.cts_ms + t.route_ms + t.sta_ms +
                     t.opt_ms + t.power_ms;
  EXPECT_LE(sum, t.total_ms + 1.0);
  // The per-engine fields partition opt_ms exactly (same clock reads).
  const double opt_sum = t.opt_setup_ms + t.opt_hold_ms +
                         t.opt_power_recovery_ms + t.opt_leakage_ms +
                         t.opt_clock_gating_ms;
  EXPECT_NEAR(opt_sum, t.opt_ms, 1e-9);
  EXPECT_GE(t.opt_setup_ms, 0.0);
  EXPECT_GE(t.opt_hold_ms, 0.0);
  EXPECT_GE(t.opt_clock_gating_ms, 0.0);
}

}  // namespace
}  // namespace vpr::flow
