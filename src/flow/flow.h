#pragma once
// Flow orchestration: the miniature stand-in for a commercial P&R tool.
// One Flow::run() executes placement -> clock tree synthesis -> global
// routing -> optimization (setup / hold / power / leakage / clock gating)
// -> signoff STA + power, with the knobs resolved from a RecipeSet, and
// returns the final QoR plus the full per-stage trajectory that the
// insight analyzers mine.
//
// Runs are deterministic given (design traits, recipe set): the flow seeds
// every engine from the design seed, and the small signoff "process noise"
// is a pure function of (design, recipe set).

#include <cstdint>
#include <vector>

#include "cts/cts.h"
#include "flow/memo.h"
#include "flow/recipe.h"
#include "netlist/generator.h"
#include "netlist/netlist.h"
#include "place/placer.h"
#include "route/router.h"
#include "sta/power.h"
#include "sta/sta.h"

namespace vpr::flow {

/// Signoff quality of result — what the recommender optimizes.
struct Qor {
  double wns = 0.0;       // ns, negative when violating
  double tns = 0.0;       // ns, >= 0 (total negative slack magnitude)
  double hold_tns = 0.0;  // ns, >= 0
  double power = 0.0;     // mW
  double area = 0.0;      // um^2
  int drcs = 0;           // routing DRC estimate
};

/// Wall-clock milliseconds per flow stage. Pure observability: stage
/// times never feed back into any QoR computation, so runs stay
/// deterministic. STA time includes analyzer construction; the remainder
/// up to total_ms is untimed glue (knob resolution, netlist copy, ...).
struct StageTimes {
  double place_ms = 0.0;
  double cts_ms = 0.0;
  double route_ms = 0.0;
  double sta_ms = 0.0;
  double opt_ms = 0.0;  // sum of the per-engine opt_* fields below
  double power_ms = 0.0;
  double total_ms = 0.0;
  // Per-engine breakdown of opt_ms, in execution order.
  double opt_setup_ms = 0.0;
  double opt_hold_ms = 0.0;
  double opt_power_recovery_ms = 0.0;
  double opt_leakage_ms = 0.0;
  double opt_clock_gating_ms = 0.0;
};

/// Everything observable about one flow run (for insight extraction).
struct FlowResult {
  Qor qor;
  FlowKnobs knobs;  // resolved knobs after recipe application
  place::PlaceTrajectory place_trajectory;
  double place_hpwl = 0.0;
  double mean_utilization = 0.0;
  route::RoutingResult routing;
  cts::ClockTree clock;
  sta::TimingReport pre_opt_timing;  // post-route, pre-optimization
  sta::TimingReport final_timing;
  sta::PowerReport power;
  opt::OptStats opt_stats;
  int final_cell_count = 0;
  StageTimes stage_times;
};

/// A benchmark design: immutable traits + the generated golden netlist.
class Design {
 public:
  explicit Design(netlist::DesignTraits traits);

  [[nodiscard]] const netlist::DesignTraits& traits() const noexcept {
    return traits_;
  }
  [[nodiscard]] const netlist::Netlist& netlist() const noexcept {
    return netlist_;
  }
  [[nodiscard]] const std::string& name() const noexcept {
    return traits_.name;
  }

 private:
  netlist::DesignTraits traits_;
  netlist::Netlist netlist_;
};

class Flow {
 public:
  explicit Flow(const Design& design);
  Flow(const Flow&) = delete;
  Flow& operator=(const Flow&) = delete;

  /// Runs the full flow with the given recipe set. Deterministic, and
  /// bitwise-identical to run_reference() (docs/flow_perf.md):
  ///  - STA within the run shares one sta::TimingAnalyzer, rebuilt only
  ///    after optimization appends a cell (its topological order depends
  ///    on connectivity alone, which retypes never change);
  ///  - placements are memoized on this Flow per (placer knobs, seed salt,
  ///    net weights), and each memoized placement keeps its routing
  ///    results per router knobs (routing runs before optimization touches
  ///    the netlist, so it is a pure function of placement and knobs).
  /// Thread-safe: concurrent run() calls on one Flow share the memo
  /// (flow/memo.h). Each placement and route is computed once, by the
  /// first run to claim it; a concurrent run with the same key waits for
  /// that result and copies it.
  [[nodiscard]] FlowResult run(const RecipeSet& recipes) const;

  /// Same flow with a fresh sta::TimingAnalyzer per STA call, the placer
  /// inline on the calling thread (run() lets the shared pool pick its
  /// workers), a from-scratch GlobalRouter, and no placement or route
  /// reuse — the equivalence oracle for run().
  [[nodiscard]] FlowResult run_reference(const RecipeSet& recipes) const;

  /// Knobs after applying `recipes` to the defaults (exposed for tests).
  [[nodiscard]] FlowKnobs resolve_knobs(const RecipeSet& recipes) const;

 private:
  /// Placements kept per Flow, and routes kept per placement (LRU).
  static constexpr std::size_t kMemoCapacity = 8;

  struct PlaceKey {
    place::PlacerKnobs knobs;
    std::uint64_t salt = 0;  // seed salt (initial vs timing-driven pass)
    std::vector<double> weights;
    friend bool operator==(const PlaceKey&, const PlaceKey&) = default;
  };

  /// A memoized placement and the routes on it, evicted with it. The
  /// netlist is still the pristine design netlist when routing runs, so a
  /// route is a pure function of (placement, RouterKnobs).
  struct Placed {
    place::Placement placement;
    place::PlaceTrajectory trajectory;
    mutable detail::Memo<route::RouterKnobs, route::RoutingResult,
                         detail::OneBucket>
        routes{kMemoCapacity};
  };

  [[nodiscard]] FlowResult run_impl(const RecipeSet& recipes,
                                    bool incremental) const;

  const Design& design_;
  mutable detail::Memo<PlaceKey, Placed, detail::OneBucket> placements_{
      kMemoCapacity};
};

}  // namespace vpr::flow
