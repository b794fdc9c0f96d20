#include "route/router.h"

#include <stdexcept>

#include "obs/trace.h"
#include "route/walk.h"

namespace vpr::route {

GlobalRouter::GlobalRouter(const netlist::Netlist& nl,
                           const place::Placement& placement,
                           RouterKnobs knobs)
    : nl_(nl), placement_(placement), knobs_(detail::clamp_knobs(knobs)) {
  if (placement.x.size() != static_cast<std::size_t>(nl.cell_count())) {
    throw std::invalid_argument("GlobalRouter: placement size mismatch");
  }
  grid_ = placement.grid > 0 ? placement.grid : 16;
}

RoutingResult GlobalRouter::run() {
  VPR_TRACE_SPAN("route.full", "route");
  std::vector<detail::TwoPin> pins;
  detail::decompose(nl_, placement_, grid_, pins);
  std::vector<std::size_t> order;
  detail::shortest_first_order(pins, order);

  // The fabric is sized against the mean demand of an uncongested routing
  // (a real router's track supply is matched to typical utilization), with
  // less headroom at advanced nodes.
  const double capacity = detail::calibrate_capacity(nl_, knobs_, pins, grid_);
  detail::EdgeWalker walker;
  walker.reset(grid_, knobs_, capacity);

  RoutingResult result;
  result.grid = grid_;
  std::vector<double> pin_length(pins.size(), 0.0);
  for (int round = 0; round < knobs_.rounds; ++round) {
    obs::TraceSpan span{"route.round", "route",
                        obs::TraceArgs{{"round", round}}};
    walker.zero_usage();
    const double penalty =
        (1.0 + 2.0 * knobs_.congestion_effort) * (round + 1);
    for (const std::size_t i : order) {
      pin_length[i] = walker.route_two_pin(pins[i], penalty);
    }
    // How often the cost intervals alone picked the winner.
    const detail::EdgeWalker::ScoreCounts counts = walker.take_counts();
    span.arg("candidates", counts.candidates);
    span.arg("summed", counts.summed);
    // Overflow accounting, and the history the next round reads; the
    // walker dies with this call, so no round after the last reads it.
    const detail::RoundOverflow over =
        detail::account_overflow(walker.h_usage(), walker.v_usage(), capacity);
    if (round + 1 < knobs_.rounds) {
      walker.bump_history(0.5 + knobs_.congestion_effort);
    }
    result.round_overflow_edges.push_back(over.over_edges);
    result.overflow_edges = over.over_edges;
    result.total_overflow = over.total_over;
    result.max_utilization = over.max_util;
  }

  detail::finalize_result(nl_, placement_, grid_, pins, pin_length, result);
  return result;
}

}  // namespace vpr::route
