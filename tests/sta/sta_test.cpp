#include "sta/sta.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <optional>
#include <span>
#include <stdexcept>
#include <vector>

#include "netlist/generator.h"
#include "util/rng.h"

namespace vpr::sta {
namespace {

using netlist::Func;
using netlist::Netlist;
using netlist::Vt;

Netlist make_empty(double period = 1.0) {
  return Netlist{"t", netlist::CellLibrary::make({"45nm", 45.0}), period};
}

TimingOptions ideal_options() {
  TimingOptions o;
  o.wire_cap_per_unit = 0.0;
  o.wire_delay_per_unit = 0.0;
  o.output_load = 0.0;
  o.clock_uncertainty = 0.0;
  return o;
}

/// FF -> inv chain of `depth` -> FF, returns (netlist, launch, capture).
struct ChainFixture {
  Netlist nl = make_empty();
  int launch = 0;
  int capture = 0;
  explicit ChainFixture(int depth, double period = 1.0) {
    nl = make_empty(period);
    const auto& lib = nl.library();
    const int dff = lib.find(Func::kDff, 2, Vt::kStandard);
    const int inv = lib.find(Func::kInv, 2, Vt::kStandard);
    const int pi = nl.add_net();
    nl.mark_primary_input(pi);
    int q = nl.add_net();
    launch = nl.add_cell(dff, {pi}, q);
    for (int i = 0; i < depth; ++i) {
      const int next = nl.add_net();
      nl.add_cell(inv, {q}, next);
      q = next;
    }
    const int q2 = nl.add_net();
    capture = nl.add_cell(dff, {q}, q2);
    nl.mark_primary_output(q2);
  }
};

TEST(TimingAnalyzer, ChainDelayAccumulates) {
  ChainFixture fx{4};
  const TimingAnalyzer sta{fx.nl};
  const auto r = sta.analyze({}, {}, ideal_options());
  // Arrival at capture D = clk2q + 4 stage delays (pin-cap loads only).
  EXPECT_GT(r.max_arrival, 0.0);
  ChainFixture longer{8};
  const TimingAnalyzer sta2{longer.nl};
  const auto r2 = sta2.analyze({}, {}, ideal_options());
  EXPECT_GT(r2.max_arrival, r.max_arrival);
}

TEST(TimingAnalyzer, SlackMatchesPeriod) {
  ChainFixture fx{2, /*period=*/10.0};
  const TimingAnalyzer sta{fx.nl};
  const auto r = sta.analyze({}, {}, ideal_options());
  EXPECT_GT(r.wns, 0.0);   // 10ns period: easy
  EXPECT_EQ(r.tns, 0.0);
  ChainFixture tight{2, /*period=*/0.05};
  const TimingAnalyzer sta2{tight.nl};
  const auto r2 = sta2.analyze({}, {}, ideal_options());
  EXPECT_LT(r2.wns, 0.0);  // 50ps period: impossible
  EXPECT_GT(r2.tns, 0.0);
  EXPECT_GT(r2.setup_violations, 0);
}

TEST(TimingAnalyzer, WnsEqualsMinEndpointSlack) {
  ChainFixture fx{5, 0.3};
  const TimingAnalyzer sta{fx.nl};
  const auto r = sta.analyze({}, {}, ideal_options());
  double min_slack = 1e18;
  for (const auto& ep : r.endpoints) {
    min_slack = std::min(min_slack, ep.setup_slack);
  }
  EXPECT_DOUBLE_EQ(r.wns, min_slack);
}

TEST(TimingAnalyzer, WireLengthAddsDelay) {
  ChainFixture fx{3, 1.0};
  const TimingAnalyzer sta{fx.nl};
  TimingOptions opt = ideal_options();
  opt.wire_cap_per_unit = 0.2;
  opt.wire_delay_per_unit = 0.1;
  const std::vector<double> short_wires(
      static_cast<std::size_t>(fx.nl.net_count()), 0.01);
  const std::vector<double> long_wires(
      static_cast<std::size_t>(fx.nl.net_count()), 0.5);
  const auto r_short = sta.analyze(short_wires, {}, opt);
  const auto r_long = sta.analyze(long_wires, {}, opt);
  EXPECT_GT(r_long.max_arrival, r_short.max_arrival);
  EXPECT_LT(r_long.wns, r_short.wns);
}

TEST(TimingAnalyzer, LateCaptureClockHelpsSetupHurtsHold) {
  ChainFixture fx{3, 0.4};
  const TimingAnalyzer sta{fx.nl};
  std::vector<double> clk(static_cast<std::size_t>(fx.nl.cell_count()), 0.0);
  const auto base = sta.analyze({}, {}, ideal_options());
  clk[static_cast<std::size_t>(fx.capture)] = 0.1;  // capture clock late
  const auto skewed = sta.analyze({}, clk, ideal_options());
  // Find the capture FF endpoint in both reports.
  const auto find_ep = [&](const TimingReport& r) {
    for (const auto& ep : r.endpoints) {
      if (ep.cell == fx.capture) return ep;
    }
    return Endpoint{};
  };
  EXPECT_GT(find_ep(skewed).setup_slack, find_ep(base).setup_slack);
  EXPECT_LT(find_ep(skewed).hold_slack, find_ep(base).hold_slack);
}

TEST(TimingAnalyzer, HoldViolationOnShortPath) {
  // FF -> FF direct: min path = clk2q only; with a late-ish capture clock,
  // hold fails.
  auto nl = make_empty(5.0);
  const auto& lib = nl.library();
  const int dff = lib.find(Func::kDff, 2, Vt::kStandard);
  const int pi = nl.add_net();
  nl.mark_primary_input(pi);
  const int q1 = nl.add_net();
  const int launch = nl.add_cell(dff, {pi}, q1);
  const int q2 = nl.add_net();
  const int capture = nl.add_cell(dff, {q1}, q2);
  nl.mark_primary_output(q2);
  (void)launch;
  const TimingAnalyzer sta{nl};
  std::vector<double> clk(static_cast<std::size_t>(nl.cell_count()), 0.0);
  clk[static_cast<std::size_t>(capture)] = 0.5;
  const auto r = sta.analyze({}, clk, ideal_options());
  EXPECT_GT(r.hold_violations, 0);
  EXPECT_LT(r.hold_wns, 0.0);
  EXPECT_GT(r.hold_tns, 0.0);
}

TEST(TimingAnalyzer, DetectsCombinationalLoop) {
  auto nl = make_empty();
  const auto& lib = nl.library();
  const int inv = lib.find(Func::kInv, 2, Vt::kStandard);
  const int a = nl.add_net();
  const int b = nl.add_net();
  nl.add_cell(inv, {a}, b);
  nl.add_cell(inv, {b}, a);  // loop
  EXPECT_THROW(TimingAnalyzer{nl}, std::logic_error);
}

TEST(TimingAnalyzer, CriticalityIsMonotoneInSlack) {
  // Deep chain at a period it cannot meet: the chain nets are critical.
  ChainFixture fx{14, 0.2};
  const TimingAnalyzer sta{fx.nl};
  const auto r = sta.analyze({}, {}, ideal_options());
  ASSERT_LT(r.wns, 0.0);
  // Nets on the single chain are all critical; PI net feeds the launch FF
  // D pin which has huge slack — its criticality must be lower.
  double max_crit = 0.0;
  for (const double c : r.net_criticality) max_crit = std::max(max_crit, c);
  EXPECT_GT(max_crit, 0.9);
}

TEST(TimingAnalyzer, SizeMismatchesRejected) {
  ChainFixture fx{2};
  const TimingAnalyzer sta{fx.nl};
  const std::vector<double> bad(3, 0.1);
  EXPECT_THROW((void)sta.analyze(bad, {}, ideal_options()),
               std::invalid_argument);
  EXPECT_THROW((void)sta.analyze({}, bad, ideal_options()),
               std::invalid_argument);
}

TEST(TimingAnalyzer, GeneratedDesignAnalyzes) {
  netlist::DesignTraits traits;
  traits.target_cells = 600;
  traits.logic_depth = 7;
  traits.seed = 99;
  const Netlist nl = netlist::generate(traits);
  const TimingAnalyzer sta{nl};
  TimingOptions opt;
  opt.wire_cap_per_unit = 0.1;
  opt.wire_delay_per_unit = 0.05;
  const auto r = sta.analyze({}, {}, opt);
  EXPECT_GT(r.max_arrival, 0.0);
  EXPECT_EQ(r.cell_slack.size(), static_cast<std::size_t>(nl.cell_count()));
  EXPECT_EQ(r.net_criticality.size(), static_cast<std::size_t>(nl.net_count()));
  EXPECT_FALSE(r.endpoints.empty());
}

/// Property: upsizing any cell on the critical path never worsens arrival.
TEST(TimingAnalyzer, UpsizingDriverImprovesLoadedStage) {
  ChainFixture fx{1, 1.0};
  TimingOptions opt = ideal_options();
  opt.wire_cap_per_unit = 0.3;
  std::vector<double> wires(static_cast<std::size_t>(fx.nl.net_count()), 0.2);
  const TimingAnalyzer sta{fx.nl};
  const double before = sta.analyze(wires, {}, opt).max_arrival;
  // Upsize the single inverter.
  const auto& lib = fx.nl.library();
  for (int c = 0; c < fx.nl.cell_count(); ++c) {
    if (!fx.nl.is_flip_flop(c)) {
      fx.nl.retype_cell(c, lib.find(Func::kInv, 4, Vt::kStandard));
    }
  }
  const TimingAnalyzer sta2{fx.nl};
  const double after = sta2.analyze(wires, {}, opt).max_arrival;
  EXPECT_LT(after, before);
}

// ----- Incremental timing within a flow run -----
// Flow::run times incrementally: it keeps one analyzer for the whole run
// and rebuilds it only when the netlist gains a cell. RunTimer is that
// policy. These cases pin that every report it gives is bitwise the one a
// freshly built analyzer (the oracle) gives, across the mutations the
// optimization engines make (retypes, hold-buffer appends) and the input
// changes the flow makes (wirelengths, clock arrivals, options).

TimingOptions flow_options() {
  TimingOptions o;
  o.wire_cap_per_unit = 0.15;
  o.wire_delay_per_unit = 0.08;
  o.clock_uncertainty = 0.02;
  return o;
}

netlist::DesignTraits small_traits(std::uint64_t seed = 0x51a11ULL) {
  netlist::DesignTraits t;
  t.name = "inc";
  t.target_cells = 420;
  t.clock_period_ns = 0.9;  // tight: nonzero TNS and criticalities
  t.logic_depth = 10;
  t.seed = seed;
  return t;
}

/// Flow::run's STA reuse: one analyzer, rebuilt only when nl.cell_count()
/// changed since it was built. Connectivity changes only through
/// insert_buffer_before/add_cell, which always append a cell, and
/// retype_cell never changes a cell's function.
class RunTimer {
 public:
  explicit RunTimer(const Netlist& nl) : nl_{nl} { rebuild(); }

  [[nodiscard]] TimingReport analyze(std::span<const double> wl,
                                     std::span<const double> clk,
                                     const TimingOptions& opt) {
    if (cells_ != nl_.cell_count()) rebuild();
    return analyzer_->analyze(wl, clk, opt);
  }
  [[nodiscard]] const TimingAnalyzer& analyzer() const { return *analyzer_; }
  [[nodiscard]] int builds() const { return builds_; }

 private:
  void rebuild() {
    analyzer_.emplace(nl_);
    cells_ = nl_.cell_count();
    ++builds_;
  }

  const Netlist& nl_;
  std::optional<TimingAnalyzer> analyzer_;
  int cells_ = 0;
  int builds_ = 0;
};

/// Every field of the two reports must be bitwise identical (== on
/// doubles, no tolerance).
void expect_reports_equal(const TimingReport& a, const TimingReport& b) {
  EXPECT_EQ(a.wns, b.wns);
  EXPECT_EQ(a.tns, b.tns);
  EXPECT_EQ(a.hold_wns, b.hold_wns);
  EXPECT_EQ(a.hold_tns, b.hold_tns);
  EXPECT_EQ(a.setup_violations, b.setup_violations);
  EXPECT_EQ(a.hold_violations, b.hold_violations);
  EXPECT_EQ(a.max_arrival, b.max_arrival);
  EXPECT_EQ(a.critical_weak_fraction, b.critical_weak_fraction);
  EXPECT_EQ(a.harmful_skew_endpoints, b.harmful_skew_endpoints);
  ASSERT_EQ(a.endpoints.size(), b.endpoints.size());
  for (std::size_t i = 0; i < a.endpoints.size(); ++i) {
    EXPECT_EQ(a.endpoints[i].cell, b.endpoints[i].cell);
    EXPECT_EQ(a.endpoints[i].net, b.endpoints[i].net);
    EXPECT_EQ(a.endpoints[i].setup_slack, b.endpoints[i].setup_slack);
    EXPECT_EQ(a.endpoints[i].hold_slack, b.endpoints[i].hold_slack);
  }
  ASSERT_EQ(a.cell_slack.size(), b.cell_slack.size());
  for (std::size_t i = 0; i < a.cell_slack.size(); ++i) {
    EXPECT_EQ(a.cell_slack[i], b.cell_slack[i]) << "cell " << i;
  }
  ASSERT_EQ(a.net_criticality.size(), b.net_criticality.size());
  for (std::size_t i = 0; i < a.net_criticality.size(); ++i) {
    EXPECT_EQ(a.net_criticality[i], b.net_criticality[i]) << "net " << i;
  }
}

/// One oracle-vs-reused comparison on the current netlist state.
void check_against_oracle(RunTimer& timer, const Netlist& nl,
                          std::span<const double> wl,
                          std::span<const double> clk,
                          const TimingOptions& opt) {
  const TimingAnalyzer oracle{nl};
  expect_reports_equal(timer.analyze(wl, clk, opt),
                       oracle.analyze(wl, clk, opt));
}

/// The analyzer's order holds every combinational cell once, each after
/// its combinational drivers.
void expect_topo_order_valid(const TimingAnalyzer& analyzer,
                             const Netlist& nl) {
  const std::vector<int>& topo = analyzer.topological_order();
  int comb = 0;
  for (int c = 0; c < nl.cell_count(); ++c) {
    if (!nl.is_flip_flop(c)) ++comb;
  }
  ASSERT_EQ(static_cast<int>(topo.size()), comb);
  std::vector<int> pos(static_cast<std::size_t>(nl.cell_count()), -1);
  for (std::size_t i = 0; i < topo.size(); ++i) {
    pos[static_cast<std::size_t>(topo[i])] = static_cast<int>(i);
  }
  for (const int c : topo) {
    for (const int net : nl.cell(c).fanin_nets) {
      const int driver = nl.net(net).driver_cell;
      if (driver == netlist::kNoDriver || nl.is_flip_flop(driver)) continue;
      EXPECT_LT(pos[static_cast<std::size_t>(driver)],
                pos[static_cast<std::size_t>(c)])
          << "cell " << c;
    }
  }
}

/// Retypes `count` random cells to a neighbouring size or a faster Vt.
void retype_random_cells(Netlist& nl, util::Rng& rng, int count) {
  const auto& lib = nl.library();
  for (int j = 0; j < count; ++j) {
    const int cell = rng.uniform_int(0, nl.cell_count() - 1);
    const int type = nl.cell(cell).type;
    if (const auto up = lib.upsized(type)) {
      nl.retype_cell(cell, *up);
    } else if (const auto down = lib.downsized(type)) {
      nl.retype_cell(cell, *down);
    } else if (const auto fv = lib.faster_vt(type)) {
      nl.retype_cell(cell, *fv);
    }
  }
}

TEST(IncrementalTimer, FirstCallMatchesOracle) {
  const Netlist nl = netlist::generate(small_traits());
  RunTimer timer{nl};
  check_against_oracle(timer, nl, {}, {}, flow_options());
  EXPECT_EQ(timer.builds(), 1);
}

TEST(IncrementalTimer, RetypeRoundsMatchOracle) {
  Netlist nl = netlist::generate(small_traits(0x52a22ULL));
  RunTimer timer{nl};
  const TimingOptions opt = flow_options();
  std::vector<double> wl(static_cast<std::size_t>(nl.net_count()), 0.02);
  check_against_oracle(timer, nl, wl, {}, opt);
  util::Rng rng{11};
  for (int round = 0; round < 6; ++round) {
    retype_random_cells(nl, rng, 10);
    check_against_oracle(timer, nl, wl, {}, opt);
  }
  // Retypes keep the built order valid: no rebuild.
  EXPECT_EQ(timer.builds(), 1);
}

TEST(IncrementalTimer, BufferAppendsMatchOracle) {
  Netlist nl = netlist::generate(small_traits(0x53a33ULL));
  const int buf = nl.library().find(Func::kBuf, 1, Vt::kStandard);
  RunTimer timer{nl};
  const TimingOptions opt = flow_options();
  std::vector<double> wl(static_cast<std::size_t>(nl.net_count()), 0.02);
  check_against_oracle(timer, nl, wl, {}, opt);
  const std::vector<int> ffs = nl.flip_flops();
  ASSERT_FALSE(ffs.empty());
  util::Rng rng{22};
  for (int round = 0; round < 4; ++round) {
    for (int j = 0; j < 3; ++j) {
      const int ff = ffs[rng.index(ffs.size())];
      (void)nl.insert_buffer_before(ff, 0, buf);
    }
    wl.resize(static_cast<std::size_t>(nl.net_count()), 0.004);
    check_against_oracle(timer, nl, wl, {}, opt);
  }
  // One rebuild per round that appended cells.
  EXPECT_EQ(timer.builds(), 5);
}

TEST(IncrementalTimer, BufferChainBeforeSameFlopMatchesOracle) {
  // Repeated insertion before the same D pin builds a buffer chain whose
  // fanin driver is a cell appended one call earlier.
  Netlist nl = netlist::generate(small_traits(0x54a44ULL));
  const int buf = nl.library().find(Func::kBuf, 1, Vt::kStandard);
  RunTimer timer{nl};
  const TimingOptions opt = flow_options();
  std::vector<double> wl(static_cast<std::size_t>(nl.net_count()), 0.02);
  check_against_oracle(timer, nl, wl, {}, opt);
  const int ff = nl.flip_flops().front();
  for (int i = 0; i < 4; ++i) {
    (void)nl.insert_buffer_before(ff, 0, buf);
    (void)nl.insert_buffer_before(ff, 0, buf);
    wl.resize(static_cast<std::size_t>(nl.net_count()), 0.004);
    check_against_oracle(timer, nl, wl, {}, opt);
    expect_topo_order_valid(timer.analyzer(), nl);
  }
}

TEST(IncrementalTimer, WirelengthChangesMatchOracle) {
  const Netlist nl = netlist::generate(small_traits(0x55a55ULL));
  RunTimer timer{nl};
  const TimingOptions opt = flow_options();
  std::vector<double> wl(static_cast<std::size_t>(nl.net_count()), 0.02);
  check_against_oracle(timer, nl, wl, {}, opt);
  // Perturb a few nets.
  util::Rng rng{33};
  for (int j = 0; j < 8; ++j) {
    wl[rng.index(wl.size())] *= 1.7;
  }
  check_against_oracle(timer, nl, wl, {}, opt);
  // Global stretch (the legalization-feedback pattern in Flow::run).
  for (auto& w : wl) w *= 1.23;
  check_against_oracle(timer, nl, wl, {}, opt);
  // Default-estimate mode (empty span) after explicit wirelengths.
  check_against_oracle(timer, nl, {}, {}, opt);
}

TEST(IncrementalTimer, ClockArrivalChangesMatchOracle) {
  const Netlist nl = netlist::generate(small_traits(0x56a66ULL));
  RunTimer timer{nl};
  const TimingOptions opt = flow_options();
  std::vector<double> wl(static_cast<std::size_t>(nl.net_count()), 0.02);
  check_against_oracle(timer, nl, wl, {}, opt);
  // Ideal clock -> skewed clock flips the harmful-skew gating too.
  std::vector<double> clk(static_cast<std::size_t>(nl.cell_count()), 0.0);
  util::Rng rng{44};
  for (const int ff : nl.flip_flops()) {
    clk[static_cast<std::size_t>(ff)] = rng.uniform(0.0, 0.08);
  }
  check_against_oracle(timer, nl, wl, clk, opt);
  // Back to an all-zero vector: values match the ideal clock but the
  // harmful-skew section is computed, unlike with an empty span.
  std::fill(clk.begin(), clk.end(), 0.0);
  check_against_oracle(timer, nl, wl, clk, opt);
  check_against_oracle(timer, nl, wl, {}, opt);
}

TEST(IncrementalTimer, OptionChangeForcesFullPass) {
  // Options are per call and every analyze call is a full pass, so new
  // options need no rebuild.
  const Netlist nl = netlist::generate(small_traits(0x57a77ULL));
  RunTimer timer{nl};
  TimingOptions opt = flow_options();
  check_against_oracle(timer, nl, {}, {}, opt);
  opt.clock_uncertainty = 0.05;
  check_against_oracle(timer, nl, {}, {}, opt);
  EXPECT_EQ(timer.builds(), 1);
}

TEST(IncrementalTimer, MixedFlowLikeSequenceMatchesOracle) {
  // The shape of Flow::run's STA usage: pre-place estimate, routed
  // wirelengths + CTS arrivals, opt-loop mutations, global stretch.
  Netlist nl = netlist::generate(small_traits(0x58a88ULL));
  const int buf = nl.library().find(Func::kBuf, 1, Vt::kStandard);
  RunTimer timer{nl};
  const TimingOptions opt = flow_options();
  check_against_oracle(timer, nl, {}, {}, opt);

  std::vector<double> wl(static_cast<std::size_t>(nl.net_count()), 0.0);
  util::Rng rng{55};
  for (auto& w : wl) w = rng.uniform(0.005, 0.06);
  std::vector<double> clk(static_cast<std::size_t>(nl.cell_count()), 0.0);
  for (const int ff : nl.flip_flops()) {
    clk[static_cast<std::size_t>(ff)] = rng.uniform(0.0, 0.05);
  }
  check_against_oracle(timer, nl, wl, clk, opt);

  const std::vector<int> ffs = nl.flip_flops();
  for (int round = 0; round < 5; ++round) {
    retype_random_cells(nl, rng, 6);
    if (round % 2 == 1) {
      (void)nl.insert_buffer_before(ffs[rng.index(ffs.size())], 0, buf);
      wl.resize(static_cast<std::size_t>(nl.net_count()), 0.004);
      clk.resize(static_cast<std::size_t>(nl.cell_count()), 0.0);
    }
    check_against_oracle(timer, nl, wl, clk, opt);
  }
  for (auto& w : wl) w *= 1.1;
  check_against_oracle(timer, nl, wl, clk, opt);
  EXPECT_EQ(timer.builds(), 3);
}

TEST(IncrementalTimer, SizeMismatchThrows) {
  const Netlist nl = netlist::generate(small_traits());
  RunTimer timer{nl};
  std::vector<double> bad_wl(3, 0.01);
  EXPECT_THROW((void)timer.analyze(bad_wl, {}, flow_options()),
               std::invalid_argument);
  std::vector<double> bad_clk(2, 0.0);
  EXPECT_THROW((void)timer.analyze({}, bad_clk, flow_options()),
               std::invalid_argument);
}

TEST(IncrementalTimer, DetectsCombinationalLoop) {
  Netlist nl = make_empty();
  const int inv = nl.library().find(Func::kInv, 2, Vt::kStandard);
  const int a = nl.add_net();
  const int b = nl.add_net();
  nl.add_cell(inv, {a}, b);
  nl.add_cell(inv, {b}, a);
  EXPECT_THROW(RunTimer{nl}, std::logic_error);
}

TEST(IncrementalTimer, TopoOrderCoversAllCombCells) {
  Netlist nl = netlist::generate(small_traits());
  RunTimer timer{nl};
  expect_topo_order_valid(timer.analyzer(), nl);
  // After appends, the rebuilt order covers each new buffer.
  const int buf = nl.library().find(Func::kBuf, 1, Vt::kStandard);
  const std::vector<int> ffs = nl.flip_flops();
  ASSERT_FALSE(ffs.empty());
  util::Rng rng{66};
  std::vector<int> added;
  for (int j = 0; j < 4; ++j) {
    added.push_back(
        nl.insert_buffer_before(ffs[rng.index(ffs.size())], 0, buf));
  }
  std::vector<double> wl(static_cast<std::size_t>(nl.net_count()), 0.02);
  (void)timer.analyze(wl, {}, flow_options());
  expect_topo_order_valid(timer.analyzer(), nl);
  const std::vector<int>& topo = timer.analyzer().topological_order();
  for (const int b : added) {
    EXPECT_NE(std::find(topo.begin(), topo.end(), b), topo.end())
        << "buffer " << b;
  }
}

}  // namespace
}  // namespace vpr::sta
