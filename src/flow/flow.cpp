#include "flow/flow.h"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <memory>
#include <optional>
#include <span>
#include <utility>

#include "obs/metrics.h"
#include "obs/trace.h"
#include "opt/engines.h"
#include "util/rng.h"

namespace vpr::flow {

namespace {

using Clock = std::chrono::steady_clock;

/// Elapsed milliseconds from `t0`, recorded as a trace span over the same
/// interval when tracing is enabled: the span boundaries and the StageTimes
/// accumulation come from the same two clock reads, so the trace and the
/// stage table can never disagree.
double stage_ms(const char* name, Clock::time_point t0,
                obs::TraceArgs args = {}) {
  const auto t1 = Clock::now();
  auto& recorder = obs::TraceRecorder::instance();
  if (recorder.enabled()) {
    const std::int64_t ts = obs::TraceRecorder::to_us(t0);
    recorder.complete(name, "flow", ts, obs::TraceRecorder::to_us(t1) - ts,
                      std::move(args));
  }
  return std::chrono::duration<double, std::milli>(t1 - t0).count();
}

/// Technology-derived wire parasitics (per normalized die unit). Advanced
/// nodes: thinner wires => higher resistance-dominated delay per unit, cap
/// slightly lower.
struct WireParams {
  double cap_per_unit;    // pF
  double delay_per_unit;  // ns
};

WireParams wire_params(const netlist::TechNode& node) {
  const double s = node.feature_nm / 45.0;  // 1.0 at 45nm, ~0.16 at 7nm
  return {
      .cap_per_unit = 0.22 * (0.5 + 0.5 * s),
      .delay_per_unit = 0.10 * (1.35 - 0.35 * s),
  };
}

}  // namespace

Design::Design(netlist::DesignTraits traits)
    : traits_(std::move(traits)), netlist_(netlist::generate(traits_)) {}

Flow::Flow(const Design& design) : design_(design) {}

FlowKnobs Flow::resolve_knobs(const RecipeSet& recipes) const {
  FlowKnobs knobs;  // engine defaults
  recipes.apply(knobs);
  return knobs;
}

FlowResult Flow::run(const RecipeSet& recipes) const {
  return run_impl(recipes, /*incremental=*/true);
}

FlowResult Flow::run_reference(const RecipeSet& recipes) const {
  return run_impl(recipes, /*incremental=*/false);
}

FlowResult Flow::run_impl(const RecipeSet& recipes, bool incremental) const {
  const auto run_start = Clock::now();
  static obs::Counter& runs_counter = obs::MetricsRegistry::instance().counter(
      "flow.runs", "Flow::run executions (incremental + reference)");
  runs_counter.inc();
  const auto& traits = design_.traits();
  FlowResult result;
  StageTimes& times = result.stage_times;
  result.knobs = resolve_knobs(recipes);
  const FlowKnobs& knobs = result.knobs;

  // Working copy: the optimization engines mutate it.
  netlist::Netlist nl = design_.netlist();
  const WireParams wire = wire_params(nl.library().node());
  const double freq_ghz = 1.0 / traits.clock_period_ns;

  sta::TimingOptions t_opt;
  t_opt.wire_cap_per_unit = wire.cap_per_unit;
  t_opt.wire_delay_per_unit = wire.delay_per_unit;
  t_opt.clock_uncertainty = std::max(0.0, knobs.clock_uncertainty);

  // All STA goes through one helper. A run times with one TimingAnalyzer
  // and reuses its topological order until the netlist gains a cell:
  // connectivity only changes through insert_buffer_before/add_cell, which
  // always append one, and retype_cell never changes a cell's function, so
  // the order stays valid across retypes. The reference oracle builds a
  // fresh analyzer per call. The returned reference is valid until the
  // next analyze call.
  std::optional<sta::TimingAnalyzer> analyzer;
  int analyzer_cells = 0;  // nl.cell_count() when `analyzer` was built
  sta::TimingReport scratch_report;
  const auto analyze = [&](std::span<const double> wl,
                           std::span<const double> clk)
      -> const sta::TimingReport& {
    const auto t0 = Clock::now();
    if (!incremental || !analyzer || analyzer_cells != nl.cell_count()) {
      analyzer.emplace(nl);
      analyzer_cells = nl.cell_count();
    }
    scratch_report = analyzer->analyze(wl, clk, t_opt);
    times.sta_ms += stage_ms("flow.sta", t0);
    return scratch_report;
  };

  // ----- Placement -----
  // Incremental runs memoize placements per (knobs, seed salt, weights):
  // the placer is deterministic, so a cached placement is bitwise what a
  // fresh run would produce. The memo hands out copies — hold fixing
  // appends buffer locations to the run's placement. `memo` is the entry
  // of the latest (final) placement, which routing is memoized under.
  std::shared_ptr<const Placed> memo;
  const auto make_placement =
      [&](std::uint64_t salt, std::span<const double> weights,
          place::PlaceTrajectory& traj) -> place::Placement {
    const auto run_placer = [&](place::PlaceTrajectory& out) {
      place::Placer placer{nl, knobs.place, traits.seed ^ salt,
                           incremental ? 0 : 1};
      return placer.run(weights, &out);
    };
    if (!incremental) return run_placer(traj);
    memo = placements_.get(
        PlaceKey{knobs.place, salt, {weights.begin(), weights.end()}},
        "place", [&] {
          auto placed = std::make_shared<Placed>();
          placed->placement = run_placer(placed->trajectory);
          return placed;
        });
    traj = memo->trajectory;
    return memo->placement;
  };

  auto stage_start = Clock::now();
  place::Placement placement =
      make_placement(0x9e37ULL, {}, result.place_trajectory);
  times.place_ms += stage_ms("flow.place", stage_start);

  // HPWL wire estimate, shared by timing-driven placement and useful-skew
  // CTS (computed at most once per placement instead of once per use).
  std::vector<double> est_wl;
  bool est_wl_valid = false;
  const auto placement_est_wl = [&]() -> const std::vector<double>& {
    if (!est_wl_valid) {
      est_wl.resize(static_cast<std::size_t>(nl.net_count()));
      for (int net = 0; net < nl.net_count(); ++net) {
        est_wl[static_cast<std::size_t>(net)] = placement.net_hpwl(nl, net);
      }
      est_wl_valid = true;
    }
    return est_wl;
  };

  if (knobs.timing_driven_place) {
    // Estimate wire lengths from HPWL, derive net criticalities, re-place.
    const auto& pre_report = analyze(placement_est_wl(), {});
    stage_start = Clock::now();
    place::PlaceTrajectory td_traj;
    placement =
        make_placement(0x9e38ULL, pre_report.net_criticality, td_traj);
    est_wl_valid = false;  // the re-place moved every cell
    times.place_ms += stage_ms("flow.place.timing_driven", stage_start);
    // Keep the richer (second) trajectory for insights.
    result.place_trajectory = td_traj;
  }
  result.place_hpwl = placement.hpwl;
  if (!placement.bin_utilization.empty()) {
    double sum = 0.0;
    for (const double u : placement.bin_utilization) sum += u;
    result.mean_utilization =
        sum / static_cast<double>(placement.bin_utilization.size());
  }

  // ----- Clock tree synthesis -----
  cts::CtsKnobs cts_knobs = knobs.cts;
  cts_knobs.wire_cap_per_unit = wire.cap_per_unit;
  cts_knobs.wire_delay_per_unit = wire.delay_per_unit;
  cts_knobs.environment_skew = 0.035 * traits.skew_sensitivity;
  cts_knobs.clock_frequency_ghz = freq_ghz;
  std::vector<double> pre_cts_slack;
  if (cts_knobs.useful_skew) {
    pre_cts_slack = analyze(placement_est_wl(), {}).cell_slack;
  }
  stage_start = Clock::now();
  const cts::ClockTreeSynthesizer cts_engine{nl, placement, cts_knobs,
                                             traits.seed ^ 0xc75ULL};
  result.clock = cts_engine.run(pre_cts_slack);
  times.cts_ms += stage_ms("flow.cts", stage_start);

  // ----- Global routing -----
  // Incremental runs reuse the final placement's memoized result for these
  // router knobs, or route and store it if this run claims the entry.
  stage_start = Clock::now();
  const auto run_router = [&] {
    route::GlobalRouter router{nl, placement, knobs.route};
    return router.run();
  };
  bool memo_hit = false;
  if (memo != nullptr) {
    memo_hit = true;
    result.routing = *memo->routes.get(knobs.route, "route", [&] {
      memo_hit = false;
      return std::make_shared<const route::RoutingResult>(run_router());
    });
  } else {
    result.routing = run_router();
  }
  times.route_ms += stage_ms(
      "flow.route", stage_start,
      {{"memo_hit", memo_hit ? std::int64_t{1} : std::int64_t{0}}});
  std::vector<double> net_wl = result.routing.net_length;

  // ----- Post-route STA -----
  // One clock-arrival vector, extended with 0.0 for cells created by hold
  // fixing (bitwise identical to re-copying result.clock.arrival per call,
  // since the base entries never change).
  std::vector<double> clk_arrival = result.clock.arrival;
  auto run_sta = [&](const netlist::Netlist& current)
      -> const sta::TimingReport& {
    // Nets created by hold fixing get a short local wire.
    net_wl.resize(static_cast<std::size_t>(current.net_count()),
                  0.3 / std::max(1, placement.grid));
    clk_arrival.resize(static_cast<std::size_t>(current.cell_count()), 0.0);
    return analyze(net_wl, clk_arrival);
  };
  result.pre_opt_timing = run_sta(nl);

  // ----- Optimization: setup -> hold -> power -> leakage -> gating -----
  opt::OptEngine engine{nl, placement, knobs.opt, traits.seed ^ 0x0b7ULL};
  const sta::TimingReport* report = &result.pre_opt_timing;
  const auto opt_stage = [&](const char* span, double& slot) {
    const double ms = stage_ms(span, stage_start);
    slot += ms;
    times.opt_ms += ms;
  };
  stage_start = Clock::now();
  int changed = engine.fix_setup(*report);
  opt_stage("flow.opt.setup", times.opt_setup_ms);
  if (changed > 0) report = &run_sta(nl);
  stage_start = Clock::now();
  changed = engine.fix_hold(*report);
  opt_stage("flow.opt.hold", times.opt_hold_ms);
  if (changed > 0) report = &run_sta(nl);
  stage_start = Clock::now();
  changed = engine.recover_power(*report);
  opt_stage("flow.opt.power_recovery", times.opt_power_recovery_ms);
  if (changed > 0) report = &run_sta(nl);
  stage_start = Clock::now();
  changed = engine.recover_leakage(*report);
  opt_stage("flow.opt.leakage", times.opt_leakage_ms);
  if (changed > 0) report = &run_sta(nl);
  stage_start = Clock::now();
  std::vector<std::uint8_t> gated;
  engine.apply_clock_gating(gated);
  opt_stage("flow.opt.clock_gating", times.opt_clock_gating_ms);
  result.opt_stats = engine.stats();
  result.final_cell_count = nl.cell_count();

  // Legalization feedback: optimization-driven area growth (upsizing, hold
  // buffers) displaces cells and stretches wires. Signoff sees the
  // stretched parasitics, so stacking aggressive sizing recipes carries a
  // real power/timing cost instead of being a free lunch.
  const double growth = std::max(
      0.0, nl.total_area() / design_.netlist().total_area() - 1.0);
  const double stretch = 1.0 + 0.6 * growth;
  for (auto& w : net_wl) w *= stretch;
  result.final_timing = run_sta(nl);

  // ----- Signoff power -----
  stage_start = Clock::now();
  sta::PowerOptions p_opt;
  p_opt.wire_cap_per_unit = wire.cap_per_unit;
  p_opt.frequency_ghz = freq_ghz;
  const sta::PowerAnalyzer power{nl};
  result.power = power.analyze(net_wl, result.clock.clock_power, gated, p_opt);
  times.power_ms += stage_ms("flow.power", stage_start);

  // ----- QoR assembly (with tiny deterministic process noise) -----
  util::Rng noise{util::hash_combine(traits.seed, recipes.to_u64())};
  const double jitter = 1.0 + noise.normal(0.0, 0.004);
  Qor& qor = result.qor;
  qor.wns = result.final_timing.wns;
  qor.tns = result.final_timing.tns * jitter;
  qor.hold_tns = result.final_timing.hold_tns;
  qor.power = result.power.total * (1.0 + noise.normal(0.0, 0.004));
  qor.area = nl.total_area();
  qor.drcs = result.routing.drc_violations;
  times.total_ms = stage_ms(
      "flow.run", run_start,
      {{"design", traits.name},
       {"recipes", recipes.to_string()},
       {"incremental", incremental ? std::int64_t{1} : std::int64_t{0}},
       {"cells", result.final_cell_count}});
  return result;
}

}  // namespace vpr::flow
