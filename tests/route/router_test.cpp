#include "route/router.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <random>
#include <string>
#include <utility>
#include <vector>

#include "netlist/generator.h"
#include "netlist/suite.h"
#include "place/placer.h"
#include "route/walk.h"

namespace vpr::route {
namespace {

struct Fixture {
  netlist::Netlist nl;
  place::Placement placement;
  explicit Fixture(double congestion = 0.3, std::uint64_t seed = 77)
      : nl(netlist::generate([&] {
          netlist::DesignTraits t;
          t.target_cells = 700;
          t.logic_depth = 6;
          t.congestion_propensity = congestion;
          t.seed = seed;
          return t;
        }())) {
    place::Placer placer{nl, place::PlacerKnobs{}, seed};
    placement = placer.run();
  }
};

/// The router's edge state without the cost cache: edge_cost() is
/// recomputed on every visit, and the winner is committed by replaying its
/// recorded edge list.
struct ReferenceGrid {
  int grid;
  RouterKnobs knobs;  // clamped
  std::vector<double> h_usage, v_usage, h_history, v_history;

  ReferenceGrid(int grid_in, const RouterKnobs& knobs_in)
      : grid(grid_in), knobs(knobs_in) {
    const std::size_t edges =
        grid > 1 ? static_cast<std::size_t>(grid) * (grid - 1) : 0;
    for (auto* v : {&h_usage, &v_usage, &h_history, &v_history}) {
      v->assign(edges, 0.0);
    }
  }

  double route_pin(const detail::TwoPin& p, double penalty, double capacity) {
    std::vector<std::pair<int, int>> mids{{p.x1, p.y0}, {p.x0, p.y1}};
    const double effort = knobs.congestion_effort;
    if (effort > 0.0) {
      const int extra = 1 + static_cast<int>(std::lround(4.0 * effort));
      const int margin = effort > 0.6 ? 2 : (effort > 0.3 ? 1 : 0);
      const int lo_x = std::max(0, std::min(p.x0, p.x1) - margin);
      const int hi_x = std::min(grid - 1, std::max(p.x0, p.x1) + margin);
      const int lo_y = std::max(0, std::min(p.y0, p.y1) - margin);
      const int hi_y = std::min(grid - 1, std::max(p.y0, p.y1) + margin);
      for (int k = 1; k <= extra; ++k) {
        const int xm = lo_x + (hi_x - lo_x) * k / (extra + 1);
        const int ym = lo_y + (hi_y - lo_y) * k / (extra + 1);
        mids.insert(mids.end(), {{xm, p.y1}, {p.x0, ym}, {xm, ym}});
      }
    }
    double best_cost = 1e300;
    std::vector<double*> best;  // usage slot per traversed edge
    for (const auto& [xm, ym] : mids) {
      double cost = 0.0;
      std::vector<double*> path;
      const auto seg = [&](bool vertical, int line, int a, int b) {
        auto& usage = vertical ? v_usage : h_usage;
        const auto& history = vertical ? v_history : h_history;
        for (int t = std::min(a, b); t < std::max(a, b); ++t) {
          const std::size_t e = static_cast<std::size_t>(line) * (grid - 1) +
                                static_cast<std::size_t>(t);
          cost += detail::edge_cost(usage.at(e), history.at(e), capacity,
                                    penalty);
          path.push_back(&usage[e]);
        }
      };
      seg(false, p.y0, p.x0, xm);
      seg(true, xm, p.y0, ym);
      seg(false, ym, xm, p.x1);
      seg(true, p.x1, ym, p.y1);
      if (cost < best_cost) {
        best_cost = cost;
        best = std::move(path);
      }
    }
    for (double* usage : best) *usage += 1.0;
    return static_cast<double>(best.size());
  }
};

/// A candidate's cost on `g`: edge_cost() recomputed per edge and summed
/// in walk order, as ReferenceGrid::route_pin scores it.
double reference_path_cost(const ReferenceGrid& g, const detail::TwoPin& p,
                           int xm, int ym, double penalty, double capacity) {
  double cost = 0.0;
  const auto seg = [&](bool vertical, int line, int a, int b) {
    const auto& usage = vertical ? g.v_usage : g.h_usage;
    const auto& history = vertical ? g.v_history : g.h_history;
    for (int t = std::min(a, b); t < std::max(a, b); ++t) {
      const std::size_t e = static_cast<std::size_t>(line) * (g.grid - 1) +
                            static_cast<std::size_t>(t);
      cost += detail::edge_cost(usage.at(e), history.at(e), capacity, penalty);
    }
  };
  seg(false, p.y0, p.x0, xm);
  seg(true, xm, p.y0, ym);
  seg(false, ym, xm, p.x1);
  seg(true, p.x1, ym, p.y1);
  return cost;
}

/// GlobalRouter's grid and two-pin connections, in routing order.
struct Connections {
  int grid;
  std::vector<detail::TwoPin> pins;
  std::vector<std::size_t> order;

  Connections(const netlist::Netlist& nl, const place::Placement& placement)
      : grid(placement.grid > 0 ? placement.grid : 16) {
    detail::decompose(nl, placement, grid, pins);
    detail::shortest_first_order(pins, order);
  }
};

/// The walked calibration pass: every pin routed once, shortest first, at
/// penalty 0 and capacity 1e18 on an empty grid, and the capacity sized
/// from that pass's mean edge usage. `knobs` must be clamped.
double walked_capacity(const netlist::Netlist& nl, const RouterKnobs& knobs,
                       const Connections& c) {
  ReferenceGrid g{c.grid, knobs};
  for (const std::size_t i : c.order) g.route_pin(c.pins[i], 0.0, 1e18);
  double mean_usage = 0.0;
  for (std::size_t e = 0; e < g.h_usage.size(); ++e) {
    mean_usage += g.h_usage[e] + g.v_usage[e];
  }
  mean_usage /= std::max<std::size_t>(1, 2 * g.h_usage.size());
  const double node_scale =
      std::clamp(nl.library().node().feature_nm / 45.0, 0.1, 1.0);
  return std::max(2.0, (1.08 + 0.55 * node_scale) * mean_usage *
                           knobs.capacity_derate);
}

/// The router without the cost cache or the closed-form capacity: it walks
/// the calibration pass, then negotiates on ReferenceGrid. GlobalRouter
/// must match it bitwise.
RoutingResult reference_route(const netlist::Netlist& nl,
                              const place::Placement& placement,
                              RouterKnobs knobs) {
  knobs = detail::clamp_knobs(knobs);
  const Connections c{nl, placement};
  const double capacity = walked_capacity(nl, knobs, c);
  ReferenceGrid g{c.grid, knobs};
  RoutingResult result;
  result.grid = c.grid;
  std::vector<double> pin_length(c.pins.size(), 0.0);
  for (int round = 0; round < knobs.rounds; ++round) {
    std::fill(g.h_usage.begin(), g.h_usage.end(), 0.0);
    std::fill(g.v_usage.begin(), g.v_usage.end(), 0.0);
    const double penalty = (1.0 + 2.0 * knobs.congestion_effort) * (round + 1);
    for (const std::size_t i : c.order) {
      pin_length[i] = g.route_pin(c.pins[i], penalty, capacity);
    }
    const detail::RoundOverflow over =
        detail::account_overflow(g.h_usage, g.v_usage, capacity);
    detail::bump_history(g.h_history, g.v_history, g.h_usage, g.v_usage,
                         0.5 + knobs.congestion_effort, capacity);
    result.round_overflow_edges.push_back(over.over_edges);
    result.overflow_edges = over.over_edges;
    result.total_overflow = over.total_over;
    result.max_utilization = over.max_util;
  }
  detail::finalize_result(nl, placement, c.grid, c.pins, pin_length, result);
  return result;
}

/// detail::calibrate_capacity against the walked pass, bitwise.
void expect_closed_form_capacity(const netlist::Netlist& nl,
                                 const place::Placement& placement,
                                 const RouterKnobs& knobs,
                                 const std::string& what) {
  const RouterKnobs clamped = detail::clamp_knobs(knobs);
  const Connections c{nl, placement};
  EXPECT_EQ(detail::calibrate_capacity(nl, clamped, c.pins, c.grid),
            walked_capacity(nl, clamped, c))
      << what;
}

void expect_same_routing(const RoutingResult& a, const RoutingResult& b,
                         const std::string& what) {
  EXPECT_EQ(a.net_length, b.net_length) << what;
  EXPECT_EQ(a.detour_factor, b.detour_factor) << what;
  EXPECT_EQ(a.total_wirelength, b.total_wirelength) << what;
  EXPECT_EQ(a.overflow_edges, b.overflow_edges) << what;
  EXPECT_EQ(a.total_overflow, b.total_overflow) << what;
  EXPECT_EQ(a.max_utilization, b.max_utilization) << what;
  EXPECT_EQ(a.drc_violations, b.drc_violations) << what;
  EXPECT_EQ(a.round_overflow_edges, b.round_overflow_edges) << what;
}

TEST(Router, RoutesEveryNetAtLeastHpwl) {
  Fixture fx;
  GlobalRouter router{fx.nl, fx.placement, RouterKnobs{}};
  const auto r = router.run();
  ASSERT_EQ(r.net_length.size(), static_cast<std::size_t>(fx.nl.net_count()));
  for (int n = 0; n < fx.nl.net_count(); ++n) {
    const double hpwl = fx.placement.net_hpwl(fx.nl, n);
    EXPECT_GE(r.net_length[static_cast<std::size_t>(n)], hpwl - 1e-9)
        << "net " << n;
    EXPECT_GE(r.detour_factor[static_cast<std::size_t>(n)], 1.0 - 1e-9);
  }
  EXPECT_GT(r.total_wirelength, 0.0);
  EXPECT_EQ(r.round_overflow_edges.size(),
            static_cast<std::size_t>(RouterKnobs{}.rounds));
}

TEST(Router, DeterministicForSameInputs) {
  Fixture fx;
  GlobalRouter a{fx.nl, fx.placement, RouterKnobs{}};
  GlobalRouter b{fx.nl, fx.placement, RouterKnobs{}};
  const auto ra = a.run();
  const auto rb = b.run();
  EXPECT_EQ(ra.net_length, rb.net_length);
  EXPECT_EQ(ra.overflow_edges, rb.overflow_edges);
}

TEST(Router, NegotiationReducesOverflowAcrossRounds) {
  Fixture fx{/*congestion=*/0.8, 13};
  RouterKnobs knobs;
  knobs.rounds = 5;
  knobs.congestion_effort = 0.8;
  GlobalRouter router{fx.nl, fx.placement, knobs};
  const auto r = router.run();
  ASSERT_EQ(r.round_overflow_edges.size(), 5u);
  // The final round should not be (much) worse than the first.
  EXPECT_LE(r.round_overflow_edges.back(),
            r.round_overflow_edges.front() + 2);
}

TEST(Router, CapacityDerateIncreasesOverflow) {
  Fixture fx{0.7, 29};
  RouterKnobs generous;
  generous.capacity_derate = 1.2;
  RouterKnobs tight;
  tight.capacity_derate = 0.6;
  GlobalRouter rg{fx.nl, fx.placement, generous};
  GlobalRouter rt{fx.nl, fx.placement, tight};
  const auto a = rg.run();
  const auto b = rt.run();
  EXPECT_LE(a.overflow_edges, b.overflow_edges);
  EXPECT_LE(a.drc_violations, b.drc_violations);
}

TEST(Router, EffortTradesWirelengthForOverflow) {
  Fixture fx{0.8, 31};
  RouterKnobs lazy;
  lazy.congestion_effort = 0.0;
  lazy.rounds = 2;
  RouterKnobs diligent;
  diligent.congestion_effort = 1.0;
  diligent.rounds = 5;
  GlobalRouter rl{fx.nl, fx.placement, lazy};
  GlobalRouter rd{fx.nl, fx.placement, diligent};
  const auto a = rl.run();
  const auto b = rd.run();
  // More effort should not yield more overflow; may cost wirelength.
  EXPECT_LE(b.overflow_edges, a.overflow_edges + 2);
}

TEST(Router, DrcCountTracksOverflow) {
  Fixture fx{0.85, 37};
  RouterKnobs tight;
  tight.capacity_derate = 0.6;
  GlobalRouter router{fx.nl, fx.placement, tight};
  const auto r = router.run();
  if (r.total_overflow > 1.0) {
    EXPECT_GT(r.drc_violations, 0);
  }
  EXPECT_GE(r.max_utilization, 0.0);
}

TEST(Router, GridEdgeCountConsistent) {
  Fixture fx;
  GlobalRouter router{fx.nl, fx.placement, RouterKnobs{}};
  const auto r = router.run();
  EXPECT_EQ(r.grid, router.grid());
  EXPECT_EQ(r.edge_count(), 2 * r.grid * (r.grid - 1));
}

TEST(Router, RejectsBadPlacement) {
  Fixture fx;
  place::Placement empty;
  EXPECT_THROW(GlobalRouter(fx.nl, empty, RouterKnobs{}),
               std::invalid_argument);
}

/// The knob corners of RouterKnobSweep: effort x derate x rounds.
constexpr double kSweepEfforts[] = {0.0, 0.5, 1.0};
constexpr double kSweepDerates[] = {0.6, 1.0, 1.2};
constexpr int kSweepRounds[] = {1, 4};

/// Property sweep: routing is legal at knob corners.
class RouterKnobSweep
    : public ::testing::TestWithParam<std::tuple<double, double, int>> {};

TEST_P(RouterKnobSweep, CompletesAndCovers) {
  const auto [effort, derate, rounds] = GetParam();
  Fixture fx{0.6, 53};
  RouterKnobs knobs;
  knobs.congestion_effort = effort;
  knobs.capacity_derate = derate;
  knobs.rounds = rounds;
  GlobalRouter router{fx.nl, fx.placement, knobs};
  const auto r = router.run();
  EXPECT_EQ(r.round_overflow_edges.size(), static_cast<std::size_t>(rounds));
  EXPECT_GT(r.total_wirelength, 0.0);
}

TEST_P(RouterKnobSweep, MatchesRecomputingReference) {
  const auto [effort, derate, rounds] = GetParam();
  Fixture fx{0.6, 53};
  RouterKnobs knobs;
  knobs.congestion_effort = effort;
  knobs.capacity_derate = derate;
  knobs.rounds = rounds;
  GlobalRouter router{fx.nl, fx.placement, knobs};
  expect_same_routing(router.run(),
                      reference_route(fx.nl, fx.placement, knobs), "corner");
}

INSTANTIATE_TEST_SUITE_P(
    Corners, RouterKnobSweep,
    ::testing::Combine(::testing::ValuesIn(kSweepEfforts),
                       ::testing::ValuesIn(kSweepDerates),
                       ::testing::ValuesIn(kSweepRounds)));

/// Every suite design at the default knobs, on its default placement.
class RouterSuite : public ::testing::TestWithParam<int> {};

TEST_P(RouterSuite, MatchesRecomputingReference) {
  const netlist::DesignTraits traits = netlist::suite_design(GetParam());
  const netlist::Netlist nl = netlist::generate(traits);
  place::Placer placer{nl, place::PlacerKnobs{}, traits.seed};
  const place::Placement placement = placer.run();
  GlobalRouter router{nl, placement, RouterKnobs{}};
  expect_same_routing(router.run(),
                      reference_route(nl, placement, RouterKnobs{}),
                      "D" + std::to_string(GetParam()));
}

/// The router knobs all 40 recipes resolve to (effort 1.3, clamped to
/// 1.0): 17 candidates per pin, the most that bounded scoring decides.
TEST_P(RouterSuite, AllRecipeKnobsMatchRecomputingReference) {
  const netlist::DesignTraits traits = netlist::suite_design(GetParam());
  const netlist::Netlist nl = netlist::generate(traits);
  place::Placer placer{nl, place::PlacerKnobs{}, traits.seed};
  const place::Placement placement = placer.run();
  RouterKnobs knobs;
  knobs.congestion_effort = 1.0;
  knobs.capacity_derate = 0.92;
  knobs.rounds = 5;
  GlobalRouter router{nl, placement, knobs};
  expect_same_routing(router.run(), reference_route(nl, placement, knobs),
                      "D" + std::to_string(GetParam()));
}

INSTANTIATE_TEST_SUITE_P(AllDesigns, RouterSuite,
                         ::testing::Range(1, netlist::kSuiteSize + 1));

/// The closed-form capacity equals the walked calibration pass's, bit for
/// bit, for every suite design at every RouterKnobSweep corner.
class RouterCalibration : public ::testing::TestWithParam<int> {};

TEST_P(RouterCalibration, ClosedFormMatchesWalkedPass) {
  const netlist::DesignTraits traits = netlist::suite_design(GetParam());
  const netlist::Netlist nl = netlist::generate(traits);
  place::Placer placer{nl, place::PlacerKnobs{}, traits.seed};
  const place::Placement placement = placer.run();
  for (const double effort : kSweepEfforts) {
    for (const double derate : kSweepDerates) {
      for (const int rounds : kSweepRounds) {
        RouterKnobs knobs;
        knobs.congestion_effort = effort;
        knobs.capacity_derate = derate;
        knobs.rounds = rounds;
        expect_closed_form_capacity(
            nl, placement, knobs,
            "D" + std::to_string(GetParam()) + " effort " +
                std::to_string(effort) + " derate " + std::to_string(derate) +
                " rounds " + std::to_string(rounds));
      }
    }
  }
}

INSTANTIATE_TEST_SUITE_P(AllDesigns, RouterCalibration,
                         ::testing::Range(1, netlist::kSuiteSize + 1));

TEST(RouterCalibrationEdge, SameBinPinsGetMinimumCapacity) {
  // Every cell in one bin: decompose drops every connection, so the mean
  // demand is 0 and the capacity floor of 2 applies, on the default grid
  // and on a one-bin grid with no edges at all.
  Fixture fx;
  for (const int grid : {fx.placement.grid, 1}) {
    place::Placement same_bin = fx.placement;
    same_bin.grid = grid;
    std::fill(same_bin.x.begin(), same_bin.x.end(), 0.5);
    std::fill(same_bin.y.begin(), same_bin.y.end(), 0.5);
    const Connections c{fx.nl, same_bin};
    EXPECT_TRUE(c.pins.empty()) << "grid " << grid;
    EXPECT_EQ(detail::calibrate_capacity(fx.nl, RouterKnobs{}, c.pins, grid),
              2.0)
        << "grid " << grid;
    expect_closed_form_capacity(fx.nl, same_bin, RouterKnobs{},
                                "grid " + std::to_string(grid));
    GlobalRouter router{fx.nl, same_bin, RouterKnobs{}};
    expect_same_routing(router.run(),
                        reference_route(fx.nl, same_bin, RouterKnobs{}),
                        "grid " + std::to_string(grid));
  }
}

TEST(RouterNearTie, SameEdgesInAnotherWalkOrderAreSummedExactly) {
  // Five connections load an 8x8 grid at capacity 3 and effort 0.2 (one
  // round's penalty); then (7,3)->(1,4) has eight candidates. Its L shape
  // through (1,3) and its detour through (5,3) cross the same edges of
  // row 3, in the orders 1..6 and 5..6, 1..4, and those walk-order sums
  // differ in the last bit. The other L shape, through (7,4), ties the
  // detour and comes first, so it wins. Its prefix estimate is one ulp
  // above the detour's, so a zero tolerance would not even sum it.
  RouterKnobs knobs;
  knobs.congestion_effort = 0.2;
  const int grid = 8;
  const double capacity = 3.0;
  const double penalty = 1.0 + 2.0 * knobs.congestion_effort;
  ReferenceGrid ref{grid, knobs};
  detail::EdgeWalker walker;
  walker.reset(grid, knobs, capacity);
  const detail::TwoPin load[] = {{0, 1, 3, 6, 4},
                                 {0, 7, 2, 4, 1},
                                 {0, 2, 3, 2, 0},
                                 {0, 1, 6, 7, 7},
                                 {0, 6, 4, 0, 3}};
  for (const detail::TwoPin& p : load) {
    ASSERT_EQ(walker.route_two_pin(p, penalty),
              ref.route_pin(p, penalty, capacity));
  }
  const detail::TwoPin target{0, 7, 3, 1, 4};
  const double l_row3 =
      reference_path_cost(ref, target, 1, 3, penalty, capacity);
  const double detour =
      reference_path_cost(ref, target, 5, 3, penalty, capacity);
  const double l_row4 =
      reference_path_cost(ref, target, 7, 4, penalty, capacity);
  EXPECT_EQ(detour, std::nextafter(l_row3, 0.0));
  EXPECT_EQ(l_row4, detour);

  const std::size_t l_row4_vertical = 7 * (grid - 1) + 3;  // (7,3)->(7,4)
  const double before = ref.v_usage[l_row4_vertical];
  EXPECT_EQ(walker.route_two_pin(target, penalty),
            ref.route_pin(target, penalty, capacity));
  EXPECT_EQ(ref.v_usage[l_row4_vertical], before + 1.0);
  EXPECT_EQ(walker.h_usage(), ref.h_usage);
  EXPECT_EQ(walker.v_usage(), ref.v_usage);
}

TEST(RouterCostBound, PrefixEstimateBracketsTheWalkOrderSum) {
  // Random cost lines, magnitudes 1 to 1e6 spread log-uniformly, so that
  // large prefix entries cancel around small segments. Every candidate
  // geometry, degenerate ones included, must have its walk-order sum
  // within the tolerance of its prefix estimate.
  std::mt19937_64 rng{2024};
  std::uniform_real_distribution<double> exponent{0.0, 6.0};
  for (const int grid : {2, 3, 5, 8, 13, 25, 40, 64}) {
    detail::EdgeSet h;
    detail::EdgeSet v;
    h.assign(grid);
    v.assign(grid);
    double top = 0.0;
    for (detail::EdgeSet* set : {&h, &v}) {
      for (double& c : set->cost) c = std::pow(10.0, exponent(rng));
      for (int line = 0; line < grid; ++line) {
        top = std::max(top, set->refresh_prefix(grid, line, 0));
      }
    }
    // refresh_prefix() returns each line's largest entry.
    const auto largest = [](const detail::EdgeSet& set) {
      return *std::max_element(set.prefix.begin(), set.prefix.end());
    };
    EXPECT_EQ(top, std::max(largest(h), largest(v)));
    const double tol = detail::cost_tol_scale(grid) * top;
    EXPECT_LT(tol, 1e-10 * top) << "grid " << grid;
    std::uniform_int_distribution<int> coord{0, grid - 1};
    double worst = 0.0;
    for (int trial = 0; trial < 4000; ++trial) {
      const detail::TwoPin pin{0, coord(rng), coord(rng), coord(rng),
                               coord(rng)};
      const detail::Candidate mid{coord(rng), coord(rng)};
      const double estimate = detail::prefix_cost(grid, h, v, pin, mid);
      const double fold = detail::path_cost(grid, h, v, pin, mid);
      worst = std::max(worst, std::abs(estimate - fold));
      ASSERT_LE(std::abs(estimate - fold), tol)
          << "grid " << grid << " pin (" << pin.x0 << "," << pin.y0
          << ")->(" << pin.x1 << "," << pin.y1 << ") mid (" << mid.xm << ","
          << mid.ym << ")";
    }
    // The estimate is not exact, so the bound is doing work.
    if (grid >= 8) {
      EXPECT_GT(worst, 0.0) << "grid " << grid;
    }
  }
}

}  // namespace
}  // namespace vpr::route
