#include "opt/engines.h"

#include <algorithm>
#include <cmath>
#include <numeric>
#include <stdexcept>

#include "obs/trace.h"

namespace vpr::opt {

std::vector<int> cells_by_slack_prefix(const sta::TimingReport& report,
                                       std::size_t k, bool ascending) {
  std::vector<int> order(report.cell_slack.size());
  std::iota(order.begin(), order.end(), 0);
  k = std::min(k, order.size());
  const auto& slack = report.cell_slack;
  if (ascending) {
    std::partial_sort(order.begin(), order.begin() + static_cast<long>(k),
                      order.end(), [&](int a, int b) {
                        const double sa = slack[static_cast<std::size_t>(a)];
                        const double sb = slack[static_cast<std::size_t>(b)];
                        if (sa != sb) return sa < sb;
                        return a < b;  // stable_sort keeps ids ascending
                      });
  } else {
    // Reversing a stable ascending sort leaves equal-slack ids in
    // descending order, so the descending tie-break is also descending.
    std::partial_sort(order.begin(), order.begin() + static_cast<long>(k),
                      order.end(), [&](int a, int b) {
                        const double sa = slack[static_cast<std::size_t>(a)];
                        const double sb = slack[static_cast<std::size_t>(b)];
                        if (sa != sb) return sa > sb;
                        return a > b;
                      });
  }
  order.resize(k);
  return order;
}

OptEngine::OptEngine(netlist::Netlist& nl, place::Placement& placement,
                     OptKnobs knobs, std::uint64_t seed)
    : nl_(nl),
      placement_(placement),
      knobs_(knobs),
      rng_(seed),
      initial_area_(nl.total_area()) {
  knobs_.setup_effort = std::clamp(knobs_.setup_effort, 0.0, 1.0);
  knobs_.hold_effort = std::clamp(knobs_.hold_effort, 0.0, 1.0);
  knobs_.power_effort = std::clamp(knobs_.power_effort, 0.0, 1.0);
  knobs_.leakage_effort = std::clamp(knobs_.leakage_effort, 0.0, 1.0);
  knobs_.clock_gating = std::clamp(knobs_.clock_gating, 0.0, 1.0);
}

int OptEngine::fix_setup(const sta::TimingReport& report) {
  VPR_TRACE_SPAN("opt.fix_setup", "opt");
  if (knobs_.setup_effort <= 0.0) return 0;
  if (report.cell_slack.size() != static_cast<std::size_t>(nl_.cell_count())) {
    throw std::invalid_argument("fix_setup: stale timing report");
  }
  const auto& lib = nl_.library();
  const double threshold = knobs_.setup_margin;
  // Budget: effort controls how deep into the critical set we go. Only
  // sub-threshold cells are ever visited, so sorting that prefix suffices.
  const int budget = static_cast<int>(
      std::lround(knobs_.setup_effort * 0.25 * nl_.cell_count()));
  std::size_t eligible = 0;
  for (const double s : report.cell_slack) {
    if (s < threshold) ++eligible;
  }
  const auto order =
      cells_by_slack_prefix(report, budget > 0 ? eligible : 0,
                            /*ascending=*/true);
  // The area limit is checked before every visit. A running area keeps
  // that O(1); its drift from the exact sum is far below 1e-9 relative,
  // so re-summing exactly whenever it comes that close to the limit keeps
  // every break decision identical to comparing total_area() itself.
  const double area_limit = initial_area_ * (1.0 + knobs_.max_area_growth);
  double area = nl_.total_area();
  const auto retype = [&](int cell, int from, int to) {
    nl_.retype_cell(cell, to);
    area += lib.cell(to).area - lib.cell(from).area;
  };
  int changed = 0;
  for (const int c : order) {
    if (changed >= budget) break;
    if (std::fabs(area - area_limit) <= 1e-9 * std::fabs(area_limit)) {
      area = nl_.total_area();
    }
    if (area > area_limit) break;
    const int type = nl_.cell(c).type;
    if (const auto up = lib.upsized(type)) {
      retype(c, type, *up);
      ++stats_.upsized;
      ++changed;
    } else if (knobs_.setup_use_lvt) {
      if (const auto fast = lib.faster_vt(type)) {
        retype(c, type, *fast);
        ++stats_.vt_accelerated;
        ++changed;
      }
    }
  }
  return changed;
}

int OptEngine::fix_hold(const sta::TimingReport& report) {
  VPR_TRACE_SPAN("opt.fix_hold", "opt");
  if (knobs_.hold_effort <= 0.0) return 0;
  const auto& lib = nl_.library();
  // Weak SVT buffer: maximum delay per unit of area/power.
  const int buf_type =
      lib.find(netlist::Func::kBuf, 1, netlist::Vt::kStandard);
  const auto& buf = lib.cell(buf_type);
  // Approximate per-buffer delay (intrinsic + typical load).
  const double buf_delay = buf.intrinsic_delay + buf.drive_res * 0.004;
  int inserted = 0;
  // Worst violations first; effort throttles how many endpoints we touch.
  std::vector<const sta::Endpoint*> violating;
  for (const auto& ep : report.endpoints) {
    if (ep.cell >= 0 && ep.hold_slack < 0.0) violating.push_back(&ep);
  }
  std::stable_sort(violating.begin(), violating.end(),
                   [](const auto* a, const auto* b) {
                     return a->hold_slack < b->hold_slack;
                   });
  const auto n_fix = static_cast<std::size_t>(
      std::lround(knobs_.hold_effort * static_cast<double>(violating.size())));
  for (std::size_t i = 0; i < n_fix; ++i) {
    const auto& ep = *violating[i];
    const int chain = std::clamp(
        static_cast<int>(std::ceil(-ep.hold_slack / std::max(buf_delay, 1e-4))),
        1, 5);
    for (int k = 0; k < chain; ++k) {
      const int new_buf = nl_.insert_buffer_before(ep.cell, 0, buf_type);
      // Place the buffer on top of its flip-flop.
      placement_.x.push_back(placement_.x[static_cast<std::size_t>(ep.cell)]);
      placement_.y.push_back(placement_.y[static_cast<std::size_t>(ep.cell)]);
      (void)new_buf;
      ++inserted;
    }
  }
  stats_.hold_buffers += inserted;
  return inserted;
}

int OptEngine::recover_power(const sta::TimingReport& report) {
  VPR_TRACE_SPAN("opt.recover_power", "opt");
  if (knobs_.power_effort <= 0.0) return 0;
  const auto& lib = nl_.library();
  // Positive-slack threshold shrinks as effort rises (more cells eligible).
  const double needed =
      knobs_.slack_guard + (1.0 - knobs_.power_effort) * 0.15 *
                               nl_.clock_period();
  const int budget = static_cast<int>(
      std::lround(knobs_.power_effort * 0.30 * nl_.cell_count()));
  // Only cells with at least `needed` slack are visited (highest first).
  std::size_t eligible = 0;
  for (const double s : report.cell_slack) {
    if (s >= needed) ++eligible;
  }
  const auto order =
      cells_by_slack_prefix(report, budget > 0 ? eligible : 0,
                            /*ascending=*/false);
  int changed = 0;
  for (const int c : order) {
    if (changed >= budget) break;
    if (nl_.is_flip_flop(c)) continue;
    if (const auto down = lib.downsized(nl_.cell(c).type)) {
      nl_.retype_cell(c, *down);
      ++stats_.downsized;
      ++changed;
    }
  }
  return changed;
}

int OptEngine::recover_leakage(const sta::TimingReport& report) {
  VPR_TRACE_SPAN("opt.recover_leakage", "opt");
  if (knobs_.leakage_effort <= 0.0) return 0;
  const auto& lib = nl_.library();
  const double needed =
      knobs_.slack_guard + (1.0 - knobs_.leakage_effort) * 0.20 *
                               nl_.clock_period();
  const int budget = static_cast<int>(
      std::lround(knobs_.leakage_effort * 0.35 * nl_.cell_count()));
  std::size_t eligible = 0;
  for (const double s : report.cell_slack) {
    if (s >= needed) ++eligible;
  }
  const auto order =
      cells_by_slack_prefix(report, budget > 0 ? eligible : 0,
                            /*ascending=*/false);
  int changed = 0;
  for (const int c : order) {
    if (changed >= budget) break;
    if (const auto slow = lib.slower_vt(nl_.cell(c).type)) {
      nl_.retype_cell(c, *slow);
      ++stats_.vt_relaxed;
      ++changed;
    }
  }
  return changed;
}

int OptEngine::apply_clock_gating(std::vector<std::uint8_t>& gated) {
  VPR_TRACE_SPAN("opt.apply_clock_gating", "opt");
  gated.resize(static_cast<std::size_t>(nl_.cell_count()), 0);
  if (knobs_.clock_gating <= 0.0) return 0;
  // Gate the lowest-activity flip-flops first.
  std::vector<int> ffs = nl_.flip_flops();
  std::stable_sort(ffs.begin(), ffs.end(), [&](int a, int b) {
    return nl_.cell(a).activity < nl_.cell(b).activity;
  });
  const auto n_gate = static_cast<std::size_t>(
      std::lround(knobs_.clock_gating * 0.8 * static_cast<double>(ffs.size())));
  int count = 0;
  for (std::size_t i = 0; i < n_gate && i < ffs.size(); ++i) {
    // Only worthwhile on genuinely idle registers.
    if (nl_.cell(ffs[i]).activity > 0.25) break;
    if (!gated[static_cast<std::size_t>(ffs[i])]) {
      gated[static_cast<std::size_t>(ffs[i])] = 1;
      ++count;
    }
  }
  stats_.gated_ffs += count;
  return count;
}

}  // namespace vpr::opt
