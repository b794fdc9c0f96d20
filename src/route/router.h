#pragma once
// Congestion-driven global routing on a capacitated bin grid. Nets are
// decomposed into driver->sink two-pin connections, routed with L/Z pattern
// candidates against a negotiated-congestion edge cost, then iteratively
// ripped up and rerouted for a configurable number of rounds. Outputs the
// routed length per net (which feeds wire caps back into STA and power),
// overflow/DRC estimates, and a per-round overflow trajectory for the
// insight analyzers.
//
// GlobalRouter is the only router: Flow::run reuses its results through a
// memo keyed on (placement, RouterKnobs) instead of rerouting
// incrementally (docs/flow_perf.md). The walk/cost/ordering mechanics live
// in route/walk.h.

#include <vector>

#include "netlist/netlist.h"
#include "place/placer.h"

namespace vpr::route {

struct RouterKnobs {
  double congestion_effort = 0.4;  // 0..1: detour willingness + penalty ramp
  double capacity_derate = 1.0;    // usable track fraction (0.5..1.3)
  int rounds = 3;                  // rip-up & reroute rounds

  friend bool operator==(const RouterKnobs&, const RouterKnobs&) = default;
};

struct RoutingResult {
  std::vector<double> net_length;     // per net, normalized units
  std::vector<double> detour_factor;  // routed length / HPWL (>= 1)
  double total_wirelength = 0.0;
  int overflow_edges = 0;        // edges over capacity after the last round
  double total_overflow = 0.0;   // summed excess demand
  double max_utilization = 0.0;  // most-loaded edge, demand/capacity
  int drc_violations = 0;        // overflow-derived DRC estimate
  int grid = 0;                  // routing grid used (edge count derives)
  std::vector<int> round_overflow_edges;  // trajectory across rounds

  [[nodiscard]] int edge_count() const noexcept {
    return grid > 1 ? 2 * grid * (grid - 1) : 0;
  }
};

class GlobalRouter {
 public:
  GlobalRouter(const netlist::Netlist& nl, const place::Placement& placement,
               RouterKnobs knobs);

  [[nodiscard]] RoutingResult run();

  [[nodiscard]] int grid() const noexcept { return grid_; }

 private:
  const netlist::Netlist& nl_;
  const place::Placement& placement_;
  RouterKnobs knobs_;
  int grid_;
};

}  // namespace vpr::route
