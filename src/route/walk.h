#pragma once
// Routing core behind route::GlobalRouter. Everything here defines the QoR
// contract: the candidate walks, their order and the floating-point
// summation order fix every routed length, and with it every flow's QoR,
// the offline dataset and the paper tables.

#include <algorithm>
#include <array>
#include <cmath>
#include <cstddef>
#include <cstdint>
#include <limits>
#include <utility>
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
      const int tx =
          bin_coord(placement.x[static_cast<std::size_t>(sink)], grid);
      const int ty =
          bin_coord(placement.y[static_cast<std::size_t>(sink)], grid);
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

/// One direction's edges: edge (x,y)->(x+1,y) of the horizontal set and
/// edge (x,y)->(x,y+1) of the vertical set both sit at index
/// line*(grid-1)+step, where the line is the fixed coordinate and the step
/// the moving one. `prefix` keeps `grid` entries per line:
/// prefix[line*grid + k] is the left-to-right sum of the line's `cost`
/// entries at steps < k, so a run of steps [a, b) costs about
/// prefix[b] - prefix[a].
struct EdgeSet {
  std::vector<double> usage;
  std::vector<double> history;  // PathFinder-style overflow memory
  std::vector<double> cost;     // edge_cost() of usage + history
  std::vector<double> prefix;   // per-line prefix sums of cost

  /// Sizes every array for `grid` and zeroes it.
  void assign(int grid) {
    const std::size_t lines = grid > 1 ? static_cast<std::size_t>(grid) : 0;
    const std::size_t edges = lines * (lines > 0 ? lines - 1 : 0);
    usage.assign(edges, 0.0);
    history.assign(edges, 0.0);
    cost.assign(edges, 0.0);
    prefix.assign(lines * lines, 0.0);
  }

  /// Recomputes the prefix entries of `line` after step `from` from
  /// `cost` and returns the line's last entry, its largest. The entries up
  /// to `from` are untouched, so the line ends up bitwise equal to a full
  /// rebuild: no rounding drifts in.
  double refresh_prefix(int grid, int line, int from) {
    const std::size_t steps = static_cast<std::size_t>(grid) - 1;
    const double* c = cost.data() + static_cast<std::size_t>(line) * steps;
    double* p = prefix.data() + static_cast<std::size_t>(line) * (steps + 1);
    for (auto k = static_cast<std::size_t>(from); k < steps; ++k) {
      p[k + 1] = p[k] + c[k];
    }
    return p[steps];
  }
};

/// A candidate path's midpoint: the path runs (x0,y0) -H-> (xm,y0) -V->
/// (xm,ym) -H-> (x1,ym) -V-> (x1,y1). With xm==x1 or ym==y1 this
/// degenerates to Z and L shapes.
struct Candidate {
  int xm, ym;
  friend bool operator==(Candidate, Candidate) = default;
};

/// Calls visit(edge_set, index) for each edge of the path through `mid`,
/// in walk order: the four segments H, V, H, V, each in ascending steps
/// whichever way the path runs. A detour path can visit the same edge
/// twice, and each visit counts.
template <typename Set, typename Visit>
void walk(int grid, Set& h, Set& v, const TwoPin& pin, Candidate mid,
          Visit&& visit) {
  const auto segment = [&](Set& set, int line, int a, int b) {
    const std::size_t base = static_cast<std::size_t>(line) * (grid - 1);
    const int hi = std::max(a, b);
    for (int step = std::min(a, b); step < hi; ++step) {
      visit(set, base + static_cast<std::size_t>(step));
    }
  };
  segment(h, pin.y0, pin.x0, mid.xm);
  segment(v, mid.xm, pin.y0, mid.ym);
  segment(h, mid.ym, mid.xm, pin.x1);
  segment(v, pin.x1, mid.ym, pin.y1);
}

/// A candidate's cost: its cached edge costs summed in walk order. This
/// fold is the contract; every shortcut below must pick the winner it
/// picks.
inline double path_cost(int grid, const EdgeSet& h, const EdgeSet& v,
                        const TwoPin& pin, Candidate mid) {
  double cost = 0.0;
  walk(grid, h, v, pin, mid,
       [&](const EdgeSet& set, std::size_t e) { cost += set.cost[e]; });
  return cost;
}

/// A candidate's length in bin steps, from its geometry.
inline int path_length(const TwoPin& pin, Candidate mid) {
  return std::abs(mid.xm - pin.x0) + std::abs(mid.ym - pin.y0) +
         std::abs(pin.x1 - mid.xm) + std::abs(pin.y1 - mid.ym);
}

/// path_cost() estimated from at most eight prefix reads and no loop:
/// each segment costs the difference of its line's prefix entries at its
/// ends. The largest index read is grid - 1, a line's last entry.
inline double prefix_cost(int grid, const EdgeSet& h, const EdgeSet& v,
                          const TwoPin& pin, Candidate mid) {
  double estimate = 0.0;
  const auto segment = [&](const EdgeSet& set, int line, int a, int b) {
    const double* p =
        set.prefix.data() + static_cast<std::size_t>(line) * grid;
    estimate += p[std::max(a, b)] - p[std::min(a, b)];
  };
  segment(h, pin.y0, pin.x0, mid.xm);
  segment(v, mid.xm, pin.y0, mid.ym);
  segment(h, mid.ym, mid.xm, pin.x1);
  segment(v, pin.x1, mid.ym, pin.y1);
  return estimate;
}

/// The error scale of prefix_cost(): with `top` at least every prefix
/// entry of both edge sets, |prefix_cost() - path_cost()| <=
/// cost_tol_scale(grid) * top for every candidate of every pin, whatever
/// costs edge_cost() filled in. With u = 2^-53, n = grid - 1, and M the
/// sum of the eight entries one estimate reads (M <= 8 * top):
/// - Every cost is at least 1 (edge_cost() adds only non-negative terms
///   to 1), so every sum below has positive summands, and its magnitude
///   is its value. No sum underflows.
/// - A prefix entry is a left-to-right sum of at most n costs, so it is
///   within gamma_n * P of its exact value P, where gamma_n =
///   n*u / (1 - n*u) (Higham, Accuracy and Stability of Numerical
///   Algorithms, 2nd ed., section 4.2). The eight reads are off by at
///   most gamma_n * M' in all, M' being their exact sum.
/// - The estimate takes four differences of reads and adds them: seven
///   roundings of partial results no larger than M. So it is within
///   (n + 7) * u * M * (1 + delta) of S, the exact sum of the path's
///   costs, with delta < 10 * n * u.
/// - path_cost() adds at most 4n costs, so it is within gamma_{4n} * S
///   of S. Each segment's exact sum is at most its upper read's exact
///   value, so S <= M', and the error is within 4n * u * M * (1 + delta).
/// - Hence |prefix_cost() - path_cost()| <= (5*grid + 2) * u * 8 * top *
///   (1 + delta). The scale below is twice (5*grid + 8) * u * 8. That
///   margin also covers the few roundings of forming the tolerance and
///   the comparison bounds (each at most u times a value below 10 * top),
///   for any grid below 10^9.
/// A wider tolerance would only sum more candidates exactly. With a zero
/// tolerance, RouterSuite and RouterKnobSweep differ from the reference
/// router.
inline double cost_tol_scale(int grid) {
  return 16.0 * (5.0 * grid + 8.0) * 0x1p-53;
}

/// A path's edge sequence as maximal runs: steps [lo, hi) of one line,
/// each consecutive with the next. Two candidates walk the same edge
/// sequence, and so have bitwise-equal path_cost(), exactly when their
/// runs are equal.
struct EdgeRuns {
  struct Run {
    bool vertical = false;
    int line = 0, lo = 0, hi = 0;
    friend bool operator==(const Run&, const Run&) = default;
  };
  std::array<Run, 4> runs{};
  int count = 0;
  friend bool operator==(const EdgeRuns&, const EdgeRuns&) = default;
};

inline EdgeRuns edge_runs(const TwoPin& pin, Candidate mid) {
  EdgeRuns out;
  const auto segment = [&](bool vertical, int line, int a, int b) {
    const int lo = std::min(a, b);
    const int hi = std::max(a, b);
    if (lo == hi) return;
    if (out.count > 0) {
      EdgeRuns::Run& last = out.runs[static_cast<std::size_t>(out.count - 1)];
      if (last.vertical == vertical && last.line == line && last.hi == lo) {
        last.hi = hi;
        return;
      }
    }
    out.runs[static_cast<std::size_t>(out.count++)] = {vertical, line, lo, hi};
  };
  segment(false, pin.y0, pin.x0, mid.xm);
  segment(true, mid.xm, pin.y0, mid.ym);
  segment(false, mid.ym, mid.xm, pin.x1);
  segment(true, pin.x1, mid.ym, pin.y1);
  return out;
}

/// The candidate walker over the capacitated bin grid: owns the usage,
/// history, cost and prefix arrays plus the per-pin scratch hoisted out
/// of the route loops.
///
/// Cost cache invariant: whenever a candidate is scored, every `cost` entry
/// equals edge_cost() of its edge's current usage and history at the
/// latched capacity and the call's penalty, and every `prefix` line equals
/// a fresh left-to-right sum of its `cost` entries. The arrays are rebuilt
/// when the penalty changes or after reset(), zero_usage() or
/// bump_history(). A commit refreshes each edge it touches, then the
/// prefix suffix of each line it touched.
///
/// Bounded scoring: each candidate's path_cost() lies within tol =
/// cost_tol_scale(grid) * prefix_top_ of its prefix_cost() estimate, so
/// only a candidate whose estimate is within 2 * tol of the lowest one
/// can be the first strictly cheapest. A lone such qualifier wins without
/// a sum. A qualifier that walks an earlier one's edge sequence ties it
/// bitwise and is dropped. If more than one is left, they are summed with
/// path_cost() in candidate order and the first strictly cheapest wins.
/// That is the winner of summing every candidate in walk order, as the
/// test reference router does.
class EdgeWalker {
 public:
  /// Scoring tallies since the last take_counts(): candidates scored, and
  /// those whose cost was summed edge by edge.
  struct ScoreCounts {
    std::int64_t candidates = 0;
    std::int64_t summed = 0;
  };

  /// Sizes and zeroes the edge arrays for `grid` and latches the clamped
  /// knobs (which shape the candidate set, at most kMaxCandidates) and the
  /// edge capacity. Call once per routing.
  void reset(int grid, const RouterKnobs& knobs, double capacity) {
    grid_ = grid;
    knobs_ = clamp_knobs(knobs);
    capacity_ = capacity;
    tol_scale_ = cost_tol_scale(grid);
    h_.assign(grid);
    v_.assign(grid);
    costs_stale_ = true;
    counts_ = {};
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

  [[nodiscard]] ScoreCounts take_counts() noexcept {
    return std::exchange(counts_, ScoreCounts{});
  }

  /// Routes one two-pin connection and commits its edge usage; returns
  /// the path length (in bin steps) of the first strictly cheapest
  /// candidate by path_cost(). The winner is committed by re-walking its
  /// geometry.
  double route_two_pin(const TwoPin& pin, double penalty) {
    if (costs_stale_ || penalty != cost_penalty_) refill_costs(penalty);
    std::size_t count = 0;
    candidates_[count++] = {pin.x1, pin.y0};  // L: horizontal then vertical
    candidates_[count++] = {pin.x0, pin.y1};  // L: vertical then horizontal
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
        candidates_[count++] = {xm, pin.y1};
        candidates_[count++] = {pin.x0, ym};
        candidates_[count++] = {xm, ym};
      }
    }
    counts_.candidates += static_cast<std::int64_t>(count);
    double lowest = std::numeric_limits<double>::infinity();
    for (std::size_t i = 0; i < count; ++i) {
      estimates_[i] = prefix_cost(grid_, h_, v_, pin, candidates_[i]);
      lowest = std::min(lowest, estimates_[i]);
    }
    // Each path_cost() is within tol of its estimate, so a candidate more
    // than 2 * tol above the lowest estimate costs more than that one.
    const double ceiling = lowest + 2.0 * (tol_scale_ * prefix_top_);
    std::size_t qualified = 0;
    for (std::size_t i = 0; i < count; ++i) {
      if (estimates_[i] <= ceiling) qualifiers_[qualified++] = i;
    }
    std::size_t best = qualifiers_[0];
    if (qualified > 1) {
      // A qualifier that walks an earlier one's edge sequence ties it
      // bitwise, so it cannot be the first strictly cheapest. The same
      // midpoint is the cheap case of the same sequence.
      std::size_t distinct = 1;
      runs_[0] = edge_runs(pin, candidates_[best]);
      for (std::size_t j = 1; j < qualified; ++j) {
        const Candidate mid = candidates_[qualifiers_[j]];
        const auto kept = qualifiers_.begin();
        if (std::any_of(kept, kept + distinct, [&](std::size_t q) {
              return candidates_[q] == mid;
            })) {
          continue;
        }
        const EdgeRuns runs = edge_runs(pin, mid);
        if (std::find(runs_.begin(), runs_.begin() + distinct, runs) ==
            runs_.begin() + distinct) {
          runs_[distinct] = runs;
          qualifiers_[distinct++] = qualifiers_[j];
        }
      }
      if (distinct > 1) {
        counts_.summed += static_cast<std::int64_t>(distinct);
        // Every path cost is finite, so the first qualifier beats 1e300.
        double best_cost = 1e300;
        for (std::size_t j = 0; j < distinct; ++j) {
          const double cost =
              path_cost(grid_, h_, v_, pin, candidates_[qualifiers_[j]]);
          if (cost < best_cost) {
            best_cost = cost;
            best = qualifiers_[j];
          }
        }
      }
    }
    const Candidate win = candidates_[best];
    walk(grid_, h_, v_, pin, win, [&](EdgeSet& set, std::size_t e) {
      set.usage[e] += 1.0;
      set.cost[e] = edge_cost(set.usage[e], set.history[e], capacity_, penalty);
    });
    const auto refresh = [&](EdgeSet& set, int line, int a, int b) {
      if (a == b) return;
      prefix_top_ = std::max(prefix_top_,
                             set.refresh_prefix(grid_, line, std::min(a, b)));
    };
    refresh(h_, pin.y0, pin.x0, win.xm);
    refresh(v_, win.xm, pin.y0, win.ym);
    refresh(h_, win.ym, win.xm, pin.x1);
    refresh(v_, pin.x1, win.ym, pin.y1);
    return path_length(pin, win);
  }

 private:
  /// Two L shapes plus three midpoints per detour step, at most 5 steps.
  static constexpr std::size_t kMaxCandidates = 17;

  void refill_costs(double penalty) {
    prefix_top_ = 0.0;
    for (EdgeSet* set : {&h_, &v_}) {
      for (std::size_t e = 0; e < set->cost.size(); ++e) {
        set->cost[e] =
            edge_cost(set->usage[e], set->history[e], capacity_, penalty);
      }
      for (int line = 0; line < grid_ && !set->cost.empty(); ++line) {
        prefix_top_ =
            std::max(prefix_top_, set->refresh_prefix(grid_, line, 0));
      }
    }
    cost_penalty_ = penalty;
    costs_stale_ = false;
  }

  int grid_ = 0;
  RouterKnobs knobs_;
  double capacity_ = 1.0;
  double tol_scale_ = 0.0;   // cost_tol_scale(grid_)
  double prefix_top_ = 0.0;  // at least every prefix entry of h_ and v_
  EdgeSet h_;
  EdgeSet v_;
  bool costs_stale_ = true;
  double cost_penalty_ = 0.0;  // the penalty the cost arrays were filled at
  ScoreCounts counts_;
  // Per-pin scratch. estimates_ is parallel to candidates_; qualifiers_
  // holds candidate indices in ascending order, and runs_ the edge runs of
  // its distinct leading entries.
  std::array<Candidate, kMaxCandidates> candidates_{};
  std::array<double, kMaxCandidates> estimates_{};
  std::array<std::size_t, kMaxCandidates> qualifiers_{};
  std::array<EdgeRuns, kMaxCandidates> runs_{};
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
