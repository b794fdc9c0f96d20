#pragma once
// Routing core behind route::GlobalRouter. Everything here defines the QoR
// contract: the candidate walks, their order and the floating-point
// summation order fix every routed length, and with it every flow's QoR,
// the offline dataset and the paper tables.

#include <algorithm>
#include <cmath>
#include <cstddef>
#include <vector>

#include "netlist/netlist.h"
#include "place/placer.h"
#include "route/router.h"

namespace vpr::route::detail {

/// Per-edge cost: unit base, smooth pressure below capacity, steep
/// negotiated penalty above it. `history` carries overflow memory across
/// rounds (PathFinder-style).
inline double edge_cost(double usage, double history, double capacity,
                        double penalty) {
  const double pressure = 0.25 * usage / capacity;
  const double over = std::max(0.0, usage + 1.0 - capacity);
  return 1.0 + pressure + history + penalty * over;
}

/// One driver->sink connection, in bin coordinates.
struct TwoPin {
  int net = 0;
  int x0 = 0, y0 = 0, x1 = 0, y1 = 0;
};

inline int bin_coord(double v, int grid) {
  return std::clamp(static_cast<int>(v * grid), 0, grid - 1);
}

/// Knob clamping: out-of-range recipe knobs saturate instead of failing.
inline RouterKnobs clamp_knobs(RouterKnobs knobs) {
  knobs.congestion_effort = std::clamp(knobs.congestion_effort, 0.0, 1.0);
  knobs.capacity_derate = std::clamp(knobs.capacity_derate, 0.5, 1.3);
  knobs.rounds = std::clamp(knobs.rounds, 1, 10);
  return knobs;
}

/// Two-pin decomposition: driver to each sink bin, dropping same-bin pins.
/// Output is net-major in ascending net order — per-net pins are contiguous,
/// which is what finalize_result sums over.
inline void decompose(const netlist::Netlist& nl,
                      const place::Placement& placement, int grid,
                      std::vector<TwoPin>& pins) {
  pins.clear();
  for (int net = 0; net < nl.net_count(); ++net) {
    const auto& n = nl.net(net);
    if (n.driver_cell == netlist::kNoDriver || n.sink_cells.empty()) continue;
    const int sx =
        bin_coord(placement.x[static_cast<std::size_t>(n.driver_cell)], grid);
    const int sy =
        bin_coord(placement.y[static_cast<std::size_t>(n.driver_cell)], grid);
    for (const int sink : n.sink_cells) {
      const int tx = bin_coord(placement.x[static_cast<std::size_t>(sink)], grid);
      const int ty = bin_coord(placement.y[static_cast<std::size_t>(sink)], grid);
      if (tx == sx && ty == sy) continue;
      pins.push_back({net, sx, sy, tx, ty});
    }
  }
}

/// Short connections first: long nets then negotiate around them. The sort
/// is stable, so ties keep net-major order.
inline void shortest_first_order(const std::vector<TwoPin>& pins,
                                 std::vector<std::size_t>& order) {
  order.resize(pins.size());
  for (std::size_t i = 0; i < order.size(); ++i) order[i] = i;
  std::stable_sort(order.begin(), order.end(),
                   [&](std::size_t a, std::size_t b) {
                     const auto manhattan = [&](const TwoPin& p) {
                       return std::abs(p.x1 - p.x0) + std::abs(p.y1 - p.y0);
                     };
                     return manhattan(pins[a]) < manhattan(pins[b]);
                   });
}

/// PathFinder history bump feeding the next round.
inline void bump_history(std::vector<double>& h_history,
                         std::vector<double>& v_history,
                         const std::vector<double>& h_usage,
                         const std::vector<double>& v_usage,
                         double history_gain, double capacity) {
  const std::size_t h_edges = h_usage.size();
  for (std::size_t e = 0; e < h_edges; ++e) {
    h_history[e] +=
        history_gain * std::max(0.0, h_usage[e] - capacity) / capacity;
    v_history[e] +=
        history_gain * std::max(0.0, v_usage[e] - capacity) / capacity;
  }
}

/// The candidate walker over the capacitated bin grid: owns the usage,
/// history and cost arrays plus the per-pin scratch hoisted out of the
/// route loops.
///
/// Cost cache invariant: whenever a candidate is scored, every `cost` entry
/// equals edge_cost() of its edge's current usage and history at the
/// latched capacity and the call's penalty. The whole array is refilled
/// when the penalty changes or after reset(), zero_usage() or
/// bump_history(); a commit refreshes each edge it touches. Scoring
/// therefore sums bitwise the same summands, in the same order, as
/// recomputing edge_cost() per visit.
class EdgeWalker {
 public:
  /// Sizes and zeroes usage + history for `grid` and latches the clamped
  /// knobs (which shape the candidate set) and the edge capacity. Call
  /// once per routing.
  void reset(int grid, const RouterKnobs& knobs, double capacity) {
    grid_ = grid;
    knobs_ = knobs;
    capacity_ = capacity;
    const std::size_t edges =
        grid > 1 ? static_cast<std::size_t>(grid) * (grid - 1) : 0;
    for (EdgeSet* set : {&h_, &v_}) {
      set->usage.assign(edges, 0.0);
      set->history.assign(edges, 0.0);
      set->cost.assign(edges, 0.0);
    }
    costs_stale_ = true;
  }

  void zero_usage() {
    std::fill(h_.usage.begin(), h_.usage.end(), 0.0);
    std::fill(v_.usage.begin(), v_.usage.end(), 0.0);
    costs_stale_ = true;
  }

  /// detail::bump_history on the walker's own arrays.
  void bump_history(double history_gain) {
    detail::bump_history(h_.history, v_.history, h_.usage, v_.usage,
                         history_gain, capacity_);
    costs_stale_ = true;
  }

  [[nodiscard]] const std::vector<double>& h_usage() const noexcept {
    return h_.usage;
  }
  [[nodiscard]] const std::vector<double>& v_usage() const noexcept {
    return v_.usage;
  }

  /// Routes one two-pin connection and commits its edge usage; returns
  /// the path length (in bin steps) via the cheapest candidate. Candidates
  /// are scored from the cost cache in order, the first strictly cheapest
  /// wins, and the winner is committed by re-walking its geometry.
  double route_two_pin(const TwoPin& pin, double penalty) {
    if (costs_stale_ || penalty != cost_penalty_) refill_costs(penalty);
    candidates_.clear();
    candidates_.push_back({pin.x1, pin.y0});  // L: horizontal then vertical
    candidates_.push_back({pin.x0, pin.y1});  // L: vertical then horizontal
    if (knobs_.congestion_effort > 0.0) {
      // Z / detour candidates: midpoints inside (and slightly beyond) the
      // bounding box, more of them at higher effort.
      const int extra =
          1 + static_cast<int>(std::lround(4.0 * knobs_.congestion_effort));
      const int margin = knobs_.congestion_effort > 0.6
                             ? 2
                             : (knobs_.congestion_effort > 0.3 ? 1 : 0);
      const int lo_x = std::max(0, std::min(pin.x0, pin.x1) - margin);
      const int hi_x = std::min(grid_ - 1, std::max(pin.x0, pin.x1) + margin);
      const int lo_y = std::max(0, std::min(pin.y0, pin.y1) - margin);
      const int hi_y = std::min(grid_ - 1, std::max(pin.y0, pin.y1) + margin);
      for (int k = 1; k <= extra; ++k) {
        const int xm = lo_x + (hi_x - lo_x) * k / (extra + 1);
        const int ym = lo_y + (hi_y - lo_y) * k / (extra + 1);
        candidates_.push_back({xm, pin.y1});
        candidates_.push_back({pin.x0, ym});
        candidates_.push_back({xm, ym});
      }
    }
    // Every path cost is finite, so the first candidate beats 1e300.
    double best_cost = 1e300;
    int best_length = 0;
    Candidate best = candidates_.front();
    for (const Candidate& cand : candidates_) {
      int length = 0;
      const double cost = path_cost(pin, cand, length);
      if (cost < best_cost) {
        best_cost = cost;
        best_length = length;
        best = cand;
      }
    }
    walk(pin, best, [&](EdgeSet& set, std::size_t e) {
      set.usage[e] += 1.0;
      set.cost[e] = edge_cost(set.usage[e], set.history[e], capacity_, penalty);
    });
    return best_length;
  }

 private:
  struct Candidate {
    int xm, ym;
  };
  /// One direction's edges: edge (x,y)->(x+1,y) of h_ and edge
  /// (x,y)->(x,y+1) of v_ both sit at index line*(grid-1)+step, where the
  /// line is the fixed coordinate and the step the moving one.
  struct EdgeSet {
    std::vector<double> usage;
    std::vector<double> history;  // PathFinder-style overflow memory
    std::vector<double> cost;     // edge_cost() of usage + history
  };

  void refill_costs(double penalty) {
    for (EdgeSet* set : {&h_, &v_}) {
      for (std::size_t e = 0; e < set->cost.size(); ++e) {
        set->cost[e] =
            edge_cost(set->usage[e], set->history[e], capacity_, penalty);
      }
    }
    cost_penalty_ = penalty;
    costs_stale_ = false;
  }

  /// Calls visit(edge_set, index) for each edge of the path through
  /// `mid`, in order: (x0,y0) -H-> (xm,y0) -V-> (xm,ym) -H-> (x1,ym) -V->
  /// (x1,y1). With xm==x1 or ym==y1 this degenerates to Z and L shapes. A
  /// detour path can visit the same edge twice, and each visit counts.
  template <typename Visit>
  void walk(const TwoPin& pin, const Candidate& mid, Visit&& visit) {
    const auto segment = [&](EdgeSet& set, int line, int a, int b) {
      const std::size_t base = static_cast<std::size_t>(line) * (grid_ - 1);
      const int hi = std::max(a, b);
      for (int step = std::min(a, b); step < hi; ++step) {
        visit(set, base + static_cast<std::size_t>(step));
      }
    };
    segment(h_, pin.y0, pin.x0, mid.xm);
    segment(v_, mid.xm, pin.y0, mid.ym);
    segment(h_, mid.ym, mid.xm, pin.x1);
    segment(v_, pin.x1, mid.ym, pin.y1);
  }

  /// Sums the cached costs along the path through `mid` in walk order;
  /// adds its edge count to `length`.
  double path_cost(const TwoPin& pin, const Candidate& mid, int& length) {
    double cost = 0.0;
    walk(pin, mid, [&](EdgeSet& set, std::size_t e) {
      cost += set.cost[e];
      ++length;
    });
    return cost;
  }

  int grid_ = 0;
  RouterKnobs knobs_;
  double capacity_ = 1.0;
  EdgeSet h_;
  EdgeSet v_;
  bool costs_stale_ = true;
  double cost_penalty_ = 0.0;  // the penalty the cost arrays were filled at
  std::vector<Candidate> candidates_;
};

/// Sizes edge capacity as headroom over the mean edge demand of an
/// uncongested routing of `pins` on the `grid`, with less headroom at
/// advanced nodes. That demand is the sum of the two-pin Manhattan lengths.
///
/// It is exactly the mean edge usage of routing every pin once, in
/// shortest-first order, at penalty 0 and capacity 1e18 (the walked
/// calibration pass the test reference router keeps):
/// - In that pass history is zero and penalty * overflow is 0, so an edge
///   costs 1 + 0.25 * usage / 1e18. Usage stays below the pin count, so
///   every edge costs between 1 and 1 + 6e-15 even at D17's 23,710 pins.
/// - The first L shape is always a shortest candidate. Of length
///   L = |dx| + |dy|, it costs at most L * (1 + 6e-15) < L + 1, while any
///   detour has at least L + 2 edges and costs at least L + 2. So every
///   pin commits some path of length L, each edge at most once.
/// - The pass's total usage is therefore the sum of L over `pins`. Sums of
///   integer-valued doubles this small are exact in any order, so the
///   per-edge sum of that pass and the per-pin sum here are the same
///   double, and so is the mean.
inline double calibrate_capacity(const netlist::Netlist& nl,
                                 const RouterKnobs& knobs,
                                 const std::vector<TwoPin>& pins, int grid) {
  double mean_usage = 0.0;
  for (const TwoPin& p : pins) {
    mean_usage += std::abs(p.x1 - p.x0) + std::abs(p.y1 - p.y0);
  }
  mean_usage /= std::max<std::size_t>(
      1, 2 * static_cast<std::size_t>(grid) * (grid - 1));
  const double node_scale =
      std::clamp(nl.library().node().feature_nm / 45.0, 0.1, 1.0);
  return std::max(2.0, (1.08 + 0.55 * node_scale) * mean_usage *
                           knobs.capacity_derate);
}

struct RoundOverflow {
  int over_edges = 0;
  double total_over = 0.0;
  double max_util = 0.0;
};

/// End-of-round overflow accounting, in a fixed scan order.
inline RoundOverflow account_overflow(const std::vector<double>& h_usage,
                                      const std::vector<double>& v_usage,
                                      double capacity) {
  RoundOverflow out;
  const std::size_t h_edges = h_usage.size();
  for (std::size_t e = 0; e < h_edges; ++e) {
    for (const auto* usage : {&h_usage, &v_usage}) {
      const double u = (*usage)[e];
      out.max_util = std::max(out.max_util, u / capacity);
      if (u > capacity) {
        ++out.over_edges;
        out.total_over += u - capacity;
      }
    }
  }
  return out;
}

/// Final per-net lengths, detours, total wirelength and the DRC estimate.
/// `pins` must be net-major (decompose order) and `pin_length` parallel to
/// it; overflow fields of `result` must already be set.
inline void finalize_result(const netlist::Netlist& nl,
                            const place::Placement& placement, int grid,
                            const std::vector<TwoPin>& pins,
                            const std::vector<double>& pin_length,
                            RoutingResult& result) {
  const double step = 1.0 / grid;
  result.net_length.assign(static_cast<std::size_t>(nl.net_count()), 0.0);
  result.detour_factor.assign(static_cast<std::size_t>(nl.net_count()), 1.0);
  result.total_wirelength = 0.0;
  std::size_t p = 0;
  for (int net = 0; net < nl.net_count(); ++net) {
    double len = 0.0;
    while (p < pins.size() && pins[p].net == net) {
      len += pin_length[p] * step;
      ++p;
    }
    // Local (same-bin) nets still have some wire.
    const double hpwl = placement.net_hpwl(nl, net);
    len = std::max(len, 0.3 * step);
    result.net_length[static_cast<std::size_t>(net)] = std::max(len, hpwl);
    result.detour_factor[static_cast<std::size_t>(net)] =
        hpwl > 1e-9 ? result.net_length[static_cast<std::size_t>(net)] / hpwl
                    : 1.0;
    result.total_wirelength += result.net_length[static_cast<std::size_t>(net)];
  }
  // DRC estimate: unresolved overflow turns into shorts/spacing violations.
  result.drc_violations = static_cast<int>(
      std::lround(2.0 * result.total_overflow + 0.5 * result.overflow_edges));
}

}  // namespace vpr::route::detail
