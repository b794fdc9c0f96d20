#include "sta/incremental.h"

#include <algorithm>
#include <cmath>
#include <cstring>
#include <stdexcept>

#include "obs/metrics.h"
#include "obs/trace.h"

namespace vpr::sta {

namespace {
constexpr double kBigSlack = 1e9;

/// Default wirelength estimate before placement exists (must match
/// sta.cpp: it depends on the current cell count, so appends shift it).
double default_wirelength(const netlist::Netlist& nl) {
  return 0.5 / std::sqrt(std::max(1, nl.cell_count()));
}

bool same_options(const TimingOptions& a, const TimingOptions& b) {
  return a.wire_cap_per_unit == b.wire_cap_per_unit &&
         a.wire_delay_per_unit == b.wire_delay_per_unit &&
         a.output_load == b.output_load &&
         a.clock_uncertainty == b.clock_uncertainty &&
         a.critical_fraction == b.critical_fraction;
}
}  // namespace

IncrementalTimer::IncrementalTimer(const netlist::Netlist& nl) : nl_(nl) {
  rebuild_topology();
}

void IncrementalTimer::rebuild_topology() {
  const int n = nl_.cell_count();
  is_ff_.assign(static_cast<std::size_t>(n), 0);
  ff_list_.clear();
  for (int c = 0; c < n; ++c) {
    if (nl_.is_flip_flop(c)) {
      is_ff_[static_cast<std::size_t>(c)] = 1;
      ff_list_.push_back(c);
    }
  }
  // Kahn's algorithm, identical to the TimingAnalyzer constructor:
  // flip-flop outputs and primary inputs are sources, FF D pins are sinks.
  std::vector<int> indegree(static_cast<std::size_t>(n), 0);
  for (int c = 0; c < n; ++c) {
    if (is_ff_[static_cast<std::size_t>(c)]) continue;
    for (const int net : nl_.cell(c).fanin_nets) {
      const int driver = nl_.net(net).driver_cell;
      if (driver != netlist::kNoDriver &&
          !is_ff_[static_cast<std::size_t>(driver)]) {
        ++indegree[static_cast<std::size_t>(c)];
      }
    }
  }
  std::vector<int> queue;
  for (int c = 0; c < n; ++c) {
    if (!is_ff_[static_cast<std::size_t>(c)] &&
        indegree[static_cast<std::size_t>(c)] == 0) {
      queue.push_back(c);
    }
  }
  topo_.clear();
  topo_.reserve(static_cast<std::size_t>(n));
  for (std::size_t head = 0; head < queue.size(); ++head) {
    const int c = queue[head];
    topo_.push_back(c);
    for (const int sink : nl_.net(nl_.cell(c).fanout_net).sink_cells) {
      if (is_ff_[static_cast<std::size_t>(sink)]) continue;
      if (--indegree[static_cast<std::size_t>(sink)] == 0) {
        queue.push_back(sink);
      }
    }
  }
  if (topo_.size() + ff_list_.size() != static_cast<std::size_t>(n)) {
    throw std::logic_error("IncrementalTimer: combinational loop detected");
  }
  topo_pos_.assign(static_cast<std::size_t>(n), -1);
  topo_out_.resize(topo_.size());
  for (std::size_t i = 0; i < topo_.size(); ++i) {
    topo_pos_[static_cast<std::size_t>(topo_[i])] = static_cast<int>(i);
    topo_out_[i] = nl_.cell(topo_[i]).fanout_net;
  }
  known_cells_ = n;
  known_nets_ = nl_.net_count();
  flat_dirty_ = true;
}

void IncrementalTimer::refresh_cell_params(int cell) {
  const auto c = static_cast<std::size_t>(cell);
  const auto& t = nl_.library().cell(type_[c]);
  cap_in_[c] = t.input_cap;
  res_drive_[c] = t.drive_res;
  delay_int_[c] = t.intrinsic_delay;
  ctq_[c] = t.clk_to_q;
  setup_t_[c] = t.setup_time;
  hold_t_[c] = t.hold_time;
  drive1_[c] = t.drive == 1 ? 1 : 0;
}

void IncrementalTimer::rebuild_flat() {
  const int n_cells = nl_.cell_count();
  const int n_nets = nl_.net_count();
  fanin_start_.assign(static_cast<std::size_t>(n_cells) + 1, 0);
  fanin_flat_.clear();
  sink_start_.assign(static_cast<std::size_t>(n_nets) + 1, 0);
  sink_flat_.clear();
  for (int c = 0; c < n_cells; ++c) {
    const auto& cell = nl_.cell(c);
    fanin_start_[static_cast<std::size_t>(c)] =
        static_cast<int>(fanin_flat_.size());
    fanin_flat_.insert(fanin_flat_.end(), cell.fanin_nets.begin(),
                       cell.fanin_nets.end());
    out_net_[static_cast<std::size_t>(c)] = cell.fanout_net;
    type_[static_cast<std::size_t>(c)] = cell.type;
    refresh_cell_params(c);
    if (is_ff_[static_cast<std::size_t>(c)]) {
      d_net_[static_cast<std::size_t>(c)] = cell.fanin_nets.front();
    }
  }
  fanin_start_[static_cast<std::size_t>(n_cells)] =
      static_cast<int>(fanin_flat_.size());
  for (int net = 0; net < n_nets; ++net) {
    const auto& n = nl_.net(net);
    sink_start_[static_cast<std::size_t>(net)] =
        static_cast<int>(sink_flat_.size());
    sink_flat_.insert(sink_flat_.end(), n.sink_cells.begin(),
                      n.sink_cells.end());
    driver_[static_cast<std::size_t>(net)] = n.driver_cell;
    po_flag_[static_cast<std::size_t>(net)] = n.is_primary_output ? 1 : 0;
  }
  sink_start_[static_cast<std::size_t>(n_nets)] =
      static_cast<int>(sink_flat_.size());
  type_version_ = nl_.type_version();
}

void IncrementalTimer::resize_state(int n_cells, int n_nets) {
  const auto nc = static_cast<std::size_t>(n_cells);
  const auto nn = static_cast<std::size_t>(n_nets);
  type_.resize(nc, -1);
  clk_.resize(nc, 0.0);
  stage_delay_.resize(nc, 0.0);
  delay_flag_.resize(nc, 0);
  launch_flag_.resize(nc, 0);
  fwd_flag_.resize(nc, 0);
  wl_.resize(nn, 0.0);
  net_load_.resize(nn, 0.0);
  at_max_.resize(nn, 0.0);
  at_min_.resize(nn, 0.0);
  required_.resize(nn, kBigSlack);
  seed_req_.resize(nn, kBigSlack);
  seed_scratch_.resize(nn, kBigSlack);
  ep_flag_.resize(nn, 0);
  load_flag_.resize(nn, 0);
  req_flag_.resize(nn, 0);
  slack_flag_.resize(nn, 0);
  near_flag_.resize(nc, 0);
  out_net_.resize(nc, -1);
  d_net_.resize(nc, -1);
  cap_in_.resize(nc, 0.0);
  res_drive_.resize(nc, 0.0);
  delay_int_.resize(nc, 0.0);
  ctq_.resize(nc, 0.0);
  setup_t_.resize(nc, 0.0);
  hold_t_.resize(nc, 0.0);
  drive1_.resize(nc, 0);
  driver_.resize(nn, netlist::kNoDriver);
  po_flag_.resize(nn, 0);
}

void IncrementalTimer::mark_load_dirty(int net) {
  if (!load_flag_[static_cast<std::size_t>(net)]) {
    load_flag_[static_cast<std::size_t>(net)] = 1;
    load_list_.push_back(net);
  }
}

void IncrementalTimer::mark_delay_dirty(int cell) {
  if (!delay_flag_[static_cast<std::size_t>(cell)]) {
    delay_flag_[static_cast<std::size_t>(cell)] = 1;
    delay_list_.push_back(cell);
  }
}

void IncrementalTimer::mark_launch_dirty(int cell) {
  if (!launch_flag_[static_cast<std::size_t>(cell)]) {
    launch_flag_[static_cast<std::size_t>(cell)] = 1;
    launch_list_.push_back(cell);
  }
}

void IncrementalTimer::mark_fwd_dirty(int cell) {
  if (!fwd_flag_[static_cast<std::size_t>(cell)]) {
    fwd_flag_[static_cast<std::size_t>(cell)] = 1;
    fwd_list_.push_back(cell);
    const int pos = topo_pos_[static_cast<std::size_t>(cell)];
    if (fwd_hi_ < fwd_lo_) {
      fwd_lo_ = fwd_hi_ = pos;
    } else {
      fwd_lo_ = std::min(fwd_lo_, pos);
      fwd_hi_ = std::max(fwd_hi_, pos);
    }
  }
}

void IncrementalTimer::mark_req_dirty(int net) {
  // Positions are classified at sweep start, not here: sync_appended marks
  // new nets before their drivers are placed in the topo order.
  if (!req_flag_[static_cast<std::size_t>(net)]) {
    req_flag_[static_cast<std::size_t>(net)] = 1;
    req_list_.push_back(net);
  }
}

void IncrementalTimer::mark_slack_dirty(int net) {
  if (!slack_flag_[static_cast<std::size_t>(net)]) {
    slack_flag_[static_cast<std::size_t>(net)] = 1;
    slack_list_.push_back(net);
  }
}

void IncrementalTimer::clear_dirt() {
  for (const int net : load_list_) load_flag_[static_cast<std::size_t>(net)] = 0;
  for (const int c : delay_list_) delay_flag_[static_cast<std::size_t>(c)] = 0;
  for (const int c : launch_list_) launch_flag_[static_cast<std::size_t>(c)] = 0;
  for (const int c : fwd_list_) fwd_flag_[static_cast<std::size_t>(c)] = 0;
  for (const int net : req_list_) req_flag_[static_cast<std::size_t>(net)] = 0;
  for (const int net : slack_list_) {
    slack_flag_[static_cast<std::size_t>(net)] = 0;
  }
  load_list_.clear();
  delay_list_.clear();
  launch_list_.clear();
  fwd_list_.clear();
  req_list_.clear();
  slack_list_.clear();
  req_src_list_.clear();
  fwd_lo_ = 0;
  fwd_hi_ = -1;
  req_lo_ = 0;
  req_hi_ = -1;
}

bool IncrementalTimer::sync_appended(int old_cells, int old_nets) {
  if (flat_dirty_) return false;  // no flat state to extend yet
  ep_struct_dirty_ = true;  // appends can add endpoints or move a D net
  const int n_cells = nl_.cell_count();
  const int n_nets = nl_.net_count();
  is_ff_.resize(static_cast<std::size_t>(n_cells), 0);
  topo_pos_.resize(static_cast<std::size_t>(n_cells), -1);
  bool ok = true;
  // Recopies one net's sink segment from the netlist after a same-length
  // rewire (a buffer splice removes one sink occurrence and appends one).
  // A length change is a structural edit the CSR cannot mirror in place.
  const auto patch_sinks = [&](int net) {
    const auto& sinks = nl_.net(net).sink_cells;
    const int sb = sink_start_[static_cast<std::size_t>(net)];
    const int se = sink_start_[static_cast<std::size_t>(net) + 1];
    if (se - sb != static_cast<int>(sinks.size())) {
      ok = false;
      return;
    }
    std::copy(sinks.begin(), sinks.end(), sink_flat_.begin() + sb);
  };
  // New nets are assumed to be driven/sunk by new cells; marking them
  // load- and required-dirty here also covers bare add_net() calls.
  for (int net = old_nets; net < n_nets; ++net) {
    mark_load_dirty(net);
    mark_req_dirty(net);
    mark_slack_dirty(net);  // new report entries must be computed
  }
  for (int c = old_cells; c < n_cells; ++c) {
    const auto& cell = nl_.cell(c);
    type_[static_cast<std::size_t>(c)] = cell.type;
    refresh_cell_params(c);
    out_net_[static_cast<std::size_t>(c)] = cell.fanout_net;
    fanin_flat_.insert(fanin_flat_.end(), cell.fanin_nets.begin(),
                       cell.fanin_nets.end());
    fanin_start_.push_back(static_cast<int>(fanin_flat_.size()));
    const bool ff =
        nl_.library().cell(cell.type).kind == netlist::CellKind::kFlipFlop;
    is_ff_[static_cast<std::size_t>(c)] = ff ? 1 : 0;
    if (ff) {
      ff_list_.push_back(c);  // ids ascend, so endpoint order is preserved
      d_net_[static_cast<std::size_t>(c)] = cell.fanin_nets.front();
      mark_launch_dirty(c);
    } else {
      // Extending the topo order in place is valid only if every
      // combinational fanin driver is already placed (earlier topo
      // position). Buffer chains appended in creation order satisfy this.
      for (const int f : cell.fanin_nets) {
        const int d = nl_.net(f).driver_cell;
        if (d != netlist::kNoDriver && !is_ff_[static_cast<std::size_t>(d)] &&
            topo_pos_[static_cast<std::size_t>(d)] < 0) {
          ok = false;
        }
      }
      topo_pos_[static_cast<std::size_t>(c)] = static_cast<int>(topo_.size());
      topo_.push_back(c);
      topo_out_.push_back(cell.fanout_net);
      mark_delay_dirty(c);
      mark_fwd_dirty(c);
    }
    for (const int f : cell.fanin_nets) {
      // The fanin nets gained a sink: their load and required change.
      mark_load_dirty(f);
      mark_req_dirty(f);
      if (f < old_nets) patch_sinks(f);
    }
    const int out = cell.fanout_net;
    mark_load_dirty(out);
    mark_req_dirty(out);
    mark_slack_dirty(out);
    if (out < old_nets) driver_[static_cast<std::size_t>(out)] = c;
    // A new cell driving a net with pre-existing combinational sinks would
    // put a topo edge backwards; bail out to a full rebuild.
    for (const int s : nl_.net(out).sink_cells) {
      if (s < old_cells && !is_ff_[static_cast<std::size_t>(s)]) ok = false;
    }
  }
  for (int net = old_nets; net < n_nets; ++net) {
    const auto& n = nl_.net(net);
    driver_[static_cast<std::size_t>(net)] = n.driver_cell;
    po_flag_[static_cast<std::size_t>(net)] = n.is_primary_output ? 1 : 0;
    sink_flat_.insert(sink_flat_.end(), n.sink_cells.begin(),
                      n.sink_cells.end());
    sink_start_.push_back(static_cast<int>(sink_flat_.size()));
    for (const int s : n.sink_cells) {
      if (s >= old_cells) continue;  // new cells built their CSR above
      if (!is_ff_[static_cast<std::size_t>(s)]) {
        ok = false;  // rewired combinational pin: order may be invalid
        continue;
      }
      // A pre-existing flip-flop rewired onto this net (buffer splice):
      // refresh its pin list and endpoint D net.
      const auto& fanins = nl_.cell(s).fanin_nets;
      const int fb = fanin_start_[static_cast<std::size_t>(s)];
      const int fe = fanin_start_[static_cast<std::size_t>(s) + 1];
      if (fe - fb != static_cast<int>(fanins.size())) {
        ok = false;
        continue;
      }
      std::copy(fanins.begin(), fanins.end(), fanin_flat_.begin() + fb);
      d_net_[static_cast<std::size_t>(s)] =
          fanin_flat_[static_cast<std::size_t>(fb)];
    }
  }
  known_cells_ = n_cells;
  known_nets_ = n_nets;
  return ok;
}

void IncrementalTimer::diff_inputs(std::span<const double> net_wirelength,
                                   std::span<const double> clock_arrival) {
  const int n_nets = nl_.net_count();
  if (net_wirelength.empty()) {
    const double dwl = default_wirelength(nl_);
    for (int net = 0; net < n_nets; ++net) {
      if (wl_[static_cast<std::size_t>(net)] != dwl) {
        wl_[static_cast<std::size_t>(net)] = dwl;
        mark_load_dirty(net);
      }
    }
  } else if (n_nets > 0 &&
             std::memcmp(wl_.data(), net_wirelength.data(),
                         static_cast<std::size_t>(n_nets) * sizeof(double)) !=
                 0) {
    // memcmp equality is bitwise equality, the same predicate the loop
    // applies per net; the flow mostly re-sends an unchanged span.
    for (int net = 0; net < n_nets; ++net) {
      const double v = net_wirelength[static_cast<std::size_t>(net)];
      if (wl_[static_cast<std::size_t>(net)] != v) {
        wl_[static_cast<std::size_t>(net)] = v;
        mark_load_dirty(net);
      }
    }
  }
  for (const int c : ff_list_) {
    const double v =
        clock_arrival.empty() ? 0.0 : clock_arrival[static_cast<std::size_t>(c)];
    if (clk_[static_cast<std::size_t>(c)] != v) {
      clk_[static_cast<std::size_t>(c)] = v;
      ep_seed_dirty_ = true;  // capture time feeds the endpoint seeds
      mark_launch_dirty(c);
    }
  }
  const auto& retype_log = nl_.retype_log();
  const std::size_t log_end = retype_log.size();
  for (std::size_t i = static_cast<std::size_t>(type_version_); i < log_end;
       ++i) {
    const int c = retype_log[i];
    const int t = nl_.cell(c).type;
    if (t == type_[static_cast<std::size_t>(c)]) continue;
    type_[static_cast<std::size_t>(c)] = t;
    refresh_cell_params(c);
    // Retyping keeps the function (and so the FF/comb kind) but changes
    // intrinsic/drive/caps: the cell's own delay and its fanin loads move.
    if (is_ff_[static_cast<std::size_t>(c)]) {
      ep_seed_dirty_ = true;  // setup/hold times feed the endpoint seeds
      mark_launch_dirty(c);
    } else {
      mark_delay_dirty(c);
    }
    // The weak-drive classification in critical_weak_fraction reads the
    // cell's drive even when its timing happens to land bitwise equal.
    mark_slack_dirty(out_net_[static_cast<std::size_t>(c)]);
    const int fb = fanin_start_[static_cast<std::size_t>(c)];
    const int fe = fanin_start_[static_cast<std::size_t>(c) + 1];
    for (int k = fb; k < fe; ++k) {
      mark_load_dirty(fanin_flat_[static_cast<std::size_t>(k)]);
    }
  }
  type_version_ = static_cast<std::uint64_t>(log_end);
}

void IncrementalTimer::update_loads(const TimingOptions& options) {
  for (const int net : load_list_) {
    load_flag_[static_cast<std::size_t>(net)] = 0;
    double load =
        wl_[static_cast<std::size_t>(net)] * options.wire_cap_per_unit;
    const int sb = sink_start_[static_cast<std::size_t>(net)];
    const int se = sink_start_[static_cast<std::size_t>(net) + 1];
    for (int i = sb; i < se; ++i) {
      load += cap_in_[static_cast<std::size_t>(
          sink_flat_[static_cast<std::size_t>(i)])];
    }
    if (po_flag_[static_cast<std::size_t>(net)]) load += options.output_load;
    net_load_[static_cast<std::size_t>(net)] = load;
    // The driver's delay depends on both the load and the wirelength, so
    // recompute it unconditionally; equality pruning happens there.
    const int d = driver_[static_cast<std::size_t>(net)];
    if (d != netlist::kNoDriver) {
      if (is_ff_[static_cast<std::size_t>(d)]) {
        mark_launch_dirty(d);
      } else {
        mark_delay_dirty(d);
      }
    }
  }
  load_list_.clear();
}

void IncrementalTimer::update_stage_delays(const TimingOptions& options) {
  for (const int c : delay_list_) {
    delay_flag_[static_cast<std::size_t>(c)] = 0;
    // Flip-flop stage delays are never read (launch is explicit).
    if (is_ff_[static_cast<std::size_t>(c)]) continue;
    const int out = out_net_[static_cast<std::size_t>(c)];
    const double sd =
        delay_int_[static_cast<std::size_t>(c)] +
        res_drive_[static_cast<std::size_t>(c)] *
            net_load_[static_cast<std::size_t>(out)] +
        0.5 * options.wire_delay_per_unit * wl_[static_cast<std::size_t>(out)];
    if (sd != stage_delay_[static_cast<std::size_t>(c)]) {
      stage_delay_[static_cast<std::size_t>(c)] = sd;
      mark_fwd_dirty(c);
      // required[fanin] = min(..., required[out] - stage_delay) shifts.
      const int fb = fanin_start_[static_cast<std::size_t>(c)];
      const int fe = fanin_start_[static_cast<std::size_t>(c) + 1];
      for (int i = fb; i < fe; ++i) {
        mark_req_dirty(fanin_flat_[static_cast<std::size_t>(i)]);
      }
    }
  }
  delay_list_.clear();
}

void IncrementalTimer::update_launches() {
  for (const int c : launch_list_) {
    launch_flag_[static_cast<std::size_t>(c)] = 0;
    const int out = out_net_[static_cast<std::size_t>(c)];
    const double launch = clk_[static_cast<std::size_t>(c)] +
                          ctq_[static_cast<std::size_t>(c)] +
                          res_drive_[static_cast<std::size_t>(c)] *
                              net_load_[static_cast<std::size_t>(out)];
    if (launch != at_max_[static_cast<std::size_t>(out)] ||
        launch != at_min_[static_cast<std::size_t>(out)]) {
      at_max_[static_cast<std::size_t>(out)] = launch;
      at_min_[static_cast<std::size_t>(out)] = launch;
      at_changed_ = true;
      mark_slack_dirty(out);
      const int sb = sink_start_[static_cast<std::size_t>(out)];
      const int se = sink_start_[static_cast<std::size_t>(out) + 1];
      for (int i = sb; i < se; ++i) {
        const int s = sink_flat_[static_cast<std::size_t>(i)];
        if (!is_ff_[static_cast<std::size_t>(s)]) mark_fwd_dirty(s);
      }
    }
  }
  launch_list_.clear();
}

void IncrementalTimer::forward_sweep() {
  // Single bounded scan over topo positions: a cell is recomputed only
  // after every dirty cell feeding it (fanins sit at strictly smaller
  // positions), and newly dirtied sinks sit at strictly larger positions,
  // so they are picked up by the same scan as fwd_hi_ grows.
  for (int pos = fwd_lo_; pos <= fwd_hi_; ++pos) {
    const int c = topo_[static_cast<std::size_t>(pos)];
    if (!fwd_flag_[static_cast<std::size_t>(c)]) continue;
    fwd_flag_[static_cast<std::size_t>(c)] = 0;
    ++stats_.forward_updates;
    double in_max = 0.0;
    double in_min = kBigSlack;
    const int fb = fanin_start_[static_cast<std::size_t>(c)];
    const int fe = fanin_start_[static_cast<std::size_t>(c) + 1];
    for (int i = fb; i < fe; ++i) {
      const int f = fanin_flat_[static_cast<std::size_t>(i)];
      in_max = std::max(in_max, at_max_[static_cast<std::size_t>(f)]);
      in_min = std::min(in_min, at_min_[static_cast<std::size_t>(f)]);
    }
    if (fb == fe) in_min = 0.0;
    const int out = out_net_[static_cast<std::size_t>(c)];
    const double nm = in_max + stage_delay_[static_cast<std::size_t>(c)];
    const double nn = in_min + stage_delay_[static_cast<std::size_t>(c)];
    if (nm != at_max_[static_cast<std::size_t>(out)] ||
        nn != at_min_[static_cast<std::size_t>(out)]) {
      at_max_[static_cast<std::size_t>(out)] = nm;
      at_min_[static_cast<std::size_t>(out)] = nn;
      at_changed_ = true;
      mark_slack_dirty(out);
      const int sb = sink_start_[static_cast<std::size_t>(out)];
      const int se = sink_start_[static_cast<std::size_t>(out) + 1];
      for (int i = sb; i < se; ++i) {
        const int s = sink_flat_[static_cast<std::size_t>(i)];
        if (!is_ff_[static_cast<std::size_t>(s)] &&
            !fwd_flag_[static_cast<std::size_t>(s)]) {
          fwd_flag_[static_cast<std::size_t>(s)] = 1;
          fwd_hi_ = std::max(fwd_hi_, topo_pos_[static_cast<std::size_t>(s)]);
        }
      }
    }
  }
  fwd_list_.clear();
  fwd_lo_ = 0;
  fwd_hi_ = -1;
}

void IncrementalTimer::full_refresh(std::span<const double> net_wirelength,
                                    std::span<const double> clock_arrival,
                                    const TimingOptions& options) {
  const int n_nets = nl_.net_count();
  if (net_wirelength.empty()) {
    std::fill(wl_.begin(), wl_.end(), default_wirelength(nl_));
  } else {
    std::copy(net_wirelength.begin(), net_wirelength.end(), wl_.begin());
  }
  if (clock_arrival.empty()) {
    std::fill(clk_.begin(), clk_.end(), 0.0);
  } else {
    std::copy(clock_arrival.begin(), clock_arrival.end(), clk_.begin());
  }
  {
    const auto& retype_log = nl_.retype_log();
    for (std::size_t i = static_cast<std::size_t>(type_version_);
         i < retype_log.size(); ++i) {
      const int c = retype_log[i];
      const int t = nl_.cell(c).type;
      if (t != type_[static_cast<std::size_t>(c)]) {
        type_[static_cast<std::size_t>(c)] = t;
        refresh_cell_params(c);
      }
    }
    type_version_ = nl_.type_version();
  }
  for (int net = 0; net < n_nets; ++net) {
    double load =
        wl_[static_cast<std::size_t>(net)] * options.wire_cap_per_unit;
    const int sb = sink_start_[static_cast<std::size_t>(net)];
    const int se = sink_start_[static_cast<std::size_t>(net) + 1];
    for (int i = sb; i < se; ++i) {
      load += cap_in_[static_cast<std::size_t>(
          sink_flat_[static_cast<std::size_t>(i)])];
    }
    if (po_flag_[static_cast<std::size_t>(net)]) load += options.output_load;
    net_load_[static_cast<std::size_t>(net)] = load;
  }
  for (const int c : topo_) {
    const int out = out_net_[static_cast<std::size_t>(c)];
    stage_delay_[static_cast<std::size_t>(c)] =
        delay_int_[static_cast<std::size_t>(c)] +
        res_drive_[static_cast<std::size_t>(c)] *
            net_load_[static_cast<std::size_t>(out)] +
        0.5 * options.wire_delay_per_unit * wl_[static_cast<std::size_t>(out)];
  }
  for (int net = 0; net < n_nets; ++net) {
    const int driver = driver_[static_cast<std::size_t>(net)];
    if (driver == netlist::kNoDriver) {
      at_max_[static_cast<std::size_t>(net)] = 0.0;  // primary input
      at_min_[static_cast<std::size_t>(net)] = 0.0;
    } else if (is_ff_[static_cast<std::size_t>(driver)]) {
      const double launch = clk_[static_cast<std::size_t>(driver)] +
                            ctq_[static_cast<std::size_t>(driver)] +
                            res_drive_[static_cast<std::size_t>(driver)] *
                                net_load_[static_cast<std::size_t>(net)];
      at_max_[static_cast<std::size_t>(net)] = launch;
      at_min_[static_cast<std::size_t>(net)] = launch;
    }
    // Combinational-driven nets are all overwritten by the sweep below.
  }
  for (const int c : topo_) {
    double in_max = 0.0;
    double in_min = kBigSlack;
    const int fb = fanin_start_[static_cast<std::size_t>(c)];
    const int fe = fanin_start_[static_cast<std::size_t>(c) + 1];
    for (int i = fb; i < fe; ++i) {
      const int f = fanin_flat_[static_cast<std::size_t>(i)];
      in_max = std::max(in_max, at_max_[static_cast<std::size_t>(f)]);
      in_min = std::min(in_min, at_min_[static_cast<std::size_t>(f)]);
    }
    if (fb == fe) in_min = 0.0;
    const int out = out_net_[static_cast<std::size_t>(c)];
    at_max_[static_cast<std::size_t>(out)] =
        in_max + stage_delay_[static_cast<std::size_t>(c)];
    at_min_[static_cast<std::size_t>(out)] =
        in_min + stage_delay_[static_cast<std::size_t>(c)];
  }
}

void IncrementalTimer::endpoint_pass(const TimingOptions& options, bool full) {
  report_.setup_violations = 0;
  report_.hold_violations = 0;
  const double period = nl_.clock_period();
  double wns = kBigSlack;
  double hold_wns = kBigSlack;
  double tns = 0.0;
  double hold_tns = 0.0;
  if (!full && !ep_seed_dirty_ && !ep_struct_dirty_) {
    // The endpoint set and its required-time seeds are unchanged (no clock
    // arrival / FF parameter / structural change), so only slacks whose D
    // net's arrival moved this call need recomputing; everything else in
    // the retained endpoint list is already the bitwise answer. The wns/tns
    // reductions re-run over all endpoints in the same order as the oracle.
    for (auto& ep : report_.endpoints) {
      if (ep.cell >= 0) {
        if (slack_flag_[static_cast<std::size_t>(ep.net)]) {
          const auto c = static_cast<std::size_t>(ep.cell);
          const double capture = clk_[c];
          const double setup_required =
              period + capture - setup_t_[c] - options.clock_uncertainty;
          ep.setup_slack =
              setup_required - at_max_[static_cast<std::size_t>(ep.net)];
          ep.hold_slack =
              at_min_[static_cast<std::size_t>(ep.net)] -
              (capture + hold_t_[c] + options.clock_uncertainty);
        }
      } else if (slack_flag_[static_cast<std::size_t>(ep.net)]) {
        ep.setup_slack = (period - options.clock_uncertainty) -
                         at_max_[static_cast<std::size_t>(ep.net)];
      }
      wns = std::min(wns, ep.setup_slack);
      hold_wns = std::min(hold_wns, ep.hold_slack);
      if (ep.setup_slack < 0.0) {
        tns -= ep.setup_slack;
        ++report_.setup_violations;
      }
      if (ep.hold_slack < 0.0) {
        hold_tns -= ep.hold_slack;
        ++report_.hold_violations;
      }
    }
    report_.wns = wns == kBigSlack ? 0.0 : wns;
    report_.hold_wns = hold_wns == kBigSlack ? 0.0 : hold_wns;
    report_.tns = tns;
    report_.hold_tns = hold_tns;
    return;
  }
  ep_seed_dirty_ = false;
  ep_struct_dirty_ = false;
  report_.endpoints.clear();
  cur_endpoint_nets_.clear();
  const auto seed_endpoint = [&](int net, double setup_required) {
    if (!ep_flag_[static_cast<std::size_t>(net)]) {
      ep_flag_[static_cast<std::size_t>(net)] = 1;
      cur_endpoint_nets_.push_back(net);
    }
    seed_scratch_[static_cast<std::size_t>(net)] = std::min(
        seed_scratch_[static_cast<std::size_t>(net)], setup_required);
  };
  for (const int c : ff_list_) {
    const int d_net = d_net_[static_cast<std::size_t>(c)];
    const double capture = clk_[static_cast<std::size_t>(c)];
    const double setup_required = period + capture -
                                  setup_t_[static_cast<std::size_t>(c)] -
                                  options.clock_uncertainty;
    const double setup_slack =
        setup_required - at_max_[static_cast<std::size_t>(d_net)];
    const double hold_slack =
        at_min_[static_cast<std::size_t>(d_net)] -
        (capture + hold_t_[static_cast<std::size_t>(c)] +
         options.clock_uncertainty);
    seed_endpoint(d_net, setup_required);
    report_.endpoints.push_back({c, d_net, setup_slack, hold_slack});
    wns = std::min(wns, setup_slack);
    hold_wns = std::min(hold_wns, hold_slack);
    if (setup_slack < 0.0) {
      tns -= setup_slack;
      ++report_.setup_violations;
    }
    if (hold_slack < 0.0) {
      hold_tns -= hold_slack;
      ++report_.hold_violations;
    }
  }
  for (const int po : nl_.primary_outputs()) {
    const double setup_required = period - options.clock_uncertainty;
    const double setup_slack =
        setup_required - at_max_[static_cast<std::size_t>(po)];
    seed_endpoint(po, setup_required);
    report_.endpoints.push_back({-1, po, setup_slack, kBigSlack});
    wns = std::min(wns, setup_slack);
    if (setup_slack < 0.0) {
      tns -= setup_slack;
      ++report_.setup_violations;
    }
  }
  report_.wns = wns == kBigSlack ? 0.0 : wns;
  report_.hold_wns = hold_wns == kBigSlack ? 0.0 : hold_wns;
  report_.tns = tns;
  report_.hold_tns = hold_tns;

  // Commit the endpoint seeds, diffing against the previous call's seeds
  // in incremental mode (a buffer insertion moves an FF's D net, so nets
  // can both gain and lose endpoint status).
  if (full) {
    std::fill(seed_req_.begin(), seed_req_.end(), kBigSlack);
    for (const int net : cur_endpoint_nets_) {
      seed_req_[static_cast<std::size_t>(net)] =
          seed_scratch_[static_cast<std::size_t>(net)];
    }
  } else {
    for (const int net : cur_endpoint_nets_) {
      if (seed_scratch_[static_cast<std::size_t>(net)] !=
          seed_req_[static_cast<std::size_t>(net)]) {
        seed_req_[static_cast<std::size_t>(net)] =
            seed_scratch_[static_cast<std::size_t>(net)];
        mark_req_dirty(net);
      }
    }
    for (const int net : prev_endpoint_nets_) {
      if (!ep_flag_[static_cast<std::size_t>(net)] &&
          seed_req_[static_cast<std::size_t>(net)] != kBigSlack) {
        seed_req_[static_cast<std::size_t>(net)] = kBigSlack;
        mark_req_dirty(net);
      }
    }
  }
  for (const int net : cur_endpoint_nets_) {
    seed_scratch_[static_cast<std::size_t>(net)] = kBigSlack;
    ep_flag_[static_cast<std::size_t>(net)] = 0;
  }
  std::swap(prev_endpoint_nets_, cur_endpoint_nets_);
}

void IncrementalTimer::backward_full() {
  std::copy(seed_req_.begin(), seed_req_.end(), required_.begin());
  for (auto it = topo_.rbegin(); it != topo_.rend(); ++it) {
    const int c = *it;
    const int out = out_net_[static_cast<std::size_t>(c)];
    const double req_in = required_[static_cast<std::size_t>(out)] -
                          stage_delay_[static_cast<std::size_t>(c)];
    const int fb = fanin_start_[static_cast<std::size_t>(c)];
    const int fe = fanin_start_[static_cast<std::size_t>(c) + 1];
    for (int i = fb; i < fe; ++i) {
      const int f = fanin_flat_[static_cast<std::size_t>(i)];
      required_[static_cast<std::size_t>(f)] =
          std::min(required_[static_cast<std::size_t>(f)], req_in);
    }
  }
}

int IncrementalTimer::req_pos(int net) const {
  const int d = driver_[static_cast<std::size_t>(net)];
  if (d == netlist::kNoDriver || is_ff_[static_cast<std::size_t>(d)]) return -1;
  return topo_pos_[static_cast<std::size_t>(d)];
}

void IncrementalTimer::backward_incremental() {
  // Pull-based recompute: required[f] is the min of its endpoint seed and
  // (required[out(s)] - stage_delay[s]) over its combinational sinks — the
  // fixpoint the oracle's push-based reverse-topo pass reaches. A net keyed
  // by its driver's topo position only ever dirties nets at strictly
  // smaller positions (its driver's fanins), so a single descending scan
  // visits every net after all nets it pulls from are final. Source nets
  // (FF- or PI-driven, no position) pull but never propagate, so they
  // drain last from req_src_list_.
  const auto recompute = [&](int f) {
    req_flag_[static_cast<std::size_t>(f)] = 0;
    ++stats_.required_updates;
    double r = seed_req_[static_cast<std::size_t>(f)];
    const int sb = sink_start_[static_cast<std::size_t>(f)];
    const int se = sink_start_[static_cast<std::size_t>(f) + 1];
    for (int i = sb; i < se; ++i) {
      const int s = sink_flat_[static_cast<std::size_t>(i)];
      if (is_ff_[static_cast<std::size_t>(s)]) continue;
      r = std::min(
          r, required_[static_cast<std::size_t>(
                 out_net_[static_cast<std::size_t>(s)])] -
                 stage_delay_[static_cast<std::size_t>(s)]);
    }
    if (r != required_[static_cast<std::size_t>(f)]) {
      required_[static_cast<std::size_t>(f)] = r;
      mark_slack_dirty(f);
      const int d = driver_[static_cast<std::size_t>(f)];
      if (d != netlist::kNoDriver && !is_ff_[static_cast<std::size_t>(d)]) {
        const int fb = fanin_start_[static_cast<std::size_t>(d)];
        const int fe = fanin_start_[static_cast<std::size_t>(d) + 1];
        for (int i = fb; i < fe; ++i) {
          const int g = fanin_flat_[static_cast<std::size_t>(i)];
          if (!req_flag_[static_cast<std::size_t>(g)]) {
            req_flag_[static_cast<std::size_t>(g)] = 1;
            const int p = req_pos(g);
            if (p < 0) {
              req_src_list_.push_back(g);
            } else {
              req_lo_ = std::min(req_lo_, p);
            }
          }
        }
      }
    }
  };
  for (const int net : req_list_) {
    const int p = req_pos(net);
    if (p < 0) {
      req_src_list_.push_back(net);
    } else if (req_hi_ < req_lo_) {
      req_lo_ = req_hi_ = p;
    } else {
      req_lo_ = std::min(req_lo_, p);
      req_hi_ = std::max(req_hi_, p);
    }
  }
  for (int pos = req_hi_; pos >= req_lo_; --pos) {
    const int f = topo_out_[static_cast<std::size_t>(pos)];
    if (req_flag_[static_cast<std::size_t>(f)]) recompute(f);
  }
  for (const int f : req_src_list_) {
    if (req_flag_[static_cast<std::size_t>(f)]) recompute(f);
  }
  req_src_list_.clear();
  req_list_.clear();
  req_lo_ = 0;
  req_hi_ = -1;
}

void IncrementalTimer::refresh_net_metrics(int net, double crit_threshold) {
  const double slack = required_[static_cast<std::size_t>(net)] -
                       at_max_[static_cast<std::size_t>(net)];
  report_.net_criticality[static_cast<std::size_t>(net)] =
      slack >= kBigSlack / 2
          ? 0.0
          : std::clamp(1.0 - slack / std::max(crit_threshold, 1e-9), 0.0, 1.0);
  const int driver = driver_[static_cast<std::size_t>(net)];
  if (driver == netlist::kNoDriver) return;
  // Each cell drives exactly one net, so cell_slack is keyed by driver.
  report_.cell_slack[static_cast<std::size_t>(driver)] = slack;
  const std::uint8_t old = near_flag_[static_cast<std::size_t>(driver)];
  std::uint8_t now = 0;
  if (slack < crit_threshold) {
    now = drive1_[static_cast<std::size_t>(driver)] ? 2 : 1;
  }
  if (now != old) {
    near_critical_ += static_cast<int>(now != 0) - static_cast<int>(old != 0);
    weak_near_critical_ +=
        static_cast<int>(now == 2) - static_cast<int>(old == 2);
    near_flag_[static_cast<std::size_t>(driver)] = now;
  }
}

void IncrementalTimer::metrics_pass(const TimingOptions& options, bool full) {
  const int n_cells = nl_.cell_count();
  const int n_nets = nl_.net_count();
  const double period = nl_.clock_period();
  const double crit_threshold = options.critical_fraction * period;
  report_.cell_slack.resize(static_cast<std::size_t>(n_cells));
  report_.net_criticality.resize(static_cast<std::size_t>(n_nets));
  if (full) {
    // Drop any slack dirt accumulated before falling back to a full pass.
    for (const int net : slack_list_) {
      slack_flag_[static_cast<std::size_t>(net)] = 0;
    }
    slack_list_.clear();
    near_critical_ = 0;
    weak_near_critical_ = 0;
    for (int c = 0; c < n_cells; ++c) {
      const int out = out_net_[static_cast<std::size_t>(c)];
      const double slack = required_[static_cast<std::size_t>(out)] -
                           at_max_[static_cast<std::size_t>(out)];
      report_.cell_slack[static_cast<std::size_t>(c)] = slack;
      std::uint8_t flag = 0;
      if (slack < crit_threshold) {
        ++near_critical_;
        if (drive1_[static_cast<std::size_t>(c)]) {
          ++weak_near_critical_;
          flag = 2;
        } else {
          flag = 1;
        }
      }
      near_flag_[static_cast<std::size_t>(c)] = flag;
    }
    double max_arrival = 0.0;
    for (int net = 0; net < n_nets; ++net) {
      max_arrival =
          std::max(max_arrival, at_max_[static_cast<std::size_t>(net)]);
      const double slack = required_[static_cast<std::size_t>(net)] -
                           at_max_[static_cast<std::size_t>(net)];
      report_.net_criticality[static_cast<std::size_t>(net)] =
          slack >= kBigSlack / 2
              ? 0.0
              : std::clamp(1.0 - slack / std::max(crit_threshold, 1e-9), 0.0,
                           1.0);
    }
    report_.max_arrival = max_arrival;
  } else {
    // Slack (and so criticality and the near-critical counters) moved only
    // where required/arrival/drive changed this call; those nets are in
    // slack_list_. max_arrival needs a rescan only if some arrival moved —
    // a decrease can dethrone the previous max.
    for (const int net : slack_list_) {
      slack_flag_[static_cast<std::size_t>(net)] = 0;
      refresh_net_metrics(net, crit_threshold);
    }
    slack_list_.clear();
    if (at_changed_) {
      // Four independent accumulators so the loop isn't one serial
      // dependency chain; max is exact, so regrouping is bitwise-safe.
      double m0 = 0.0, m1 = 0.0, m2 = 0.0, m3 = 0.0;
      const std::size_t nn = at_max_.size();
      std::size_t i = 0;
      for (; i + 4 <= nn; i += 4) {
        m0 = std::max(m0, at_max_[i]);
        m1 = std::max(m1, at_max_[i + 1]);
        m2 = std::max(m2, at_max_[i + 2]);
        m3 = std::max(m3, at_max_[i + 3]);
      }
      for (; i < nn; ++i) m0 = std::max(m0, at_max_[i]);
      report_.max_arrival = std::max(std::max(m0, m1), std::max(m2, m3));
    }
  }
  report_.critical_weak_fraction =
      near_critical_ > 0
          ? static_cast<double>(weak_near_critical_) / near_critical_
          : 0.0;

  report_.harmful_skew_endpoints = 0;
  if (!clk_empty_) {
    double mean_clk = 0.0;
    int ffs = 0;
    for (const int c : ff_list_) {
      mean_clk += clk_[static_cast<std::size_t>(c)];
      ++ffs;
    }
    if (ffs > 0) mean_clk /= ffs;
    for (const auto& ep : report_.endpoints) {
      if (ep.cell < 0) continue;
      if (ep.setup_slack < crit_threshold &&
          clk_[static_cast<std::size_t>(ep.cell)] < mean_clk - 1e-6) {
        ++report_.harmful_skew_endpoints;
      }
    }
  }
}

const TimingReport& IncrementalTimer::analyze(
    std::span<const double> net_wirelength,
    std::span<const double> clock_arrival, const TimingOptions& options) {
  const int n_cells = nl_.cell_count();
  const int n_nets = nl_.net_count();
  if (!net_wirelength.empty() &&
      net_wirelength.size() != static_cast<std::size_t>(n_nets)) {
    throw std::invalid_argument("analyze: net_wirelength size mismatch");
  }
  if (!clock_arrival.empty() &&
      clock_arrival.size() != static_cast<std::size_t>(n_cells)) {
    throw std::invalid_argument("analyze: clock_arrival size mismatch");
  }
  ++stats_.analyze_calls;
  static obs::Counter& analyze_counter =
      obs::MetricsRegistry::instance().counter(
          "sta.incremental.analyze_calls",
          "IncrementalTimer::analyze invocations");
  analyze_counter.inc();
  VPR_TRACE_SPAN("sta.incremental.analyze", "sta");

  bool full = !has_result_ || !same_options(options, options_);
  const bool shrunk = n_cells < known_cells_ || n_nets < known_nets_;
  if (shrunk) {
    // The netlist was replaced under us; recover with a rebuild. Drop any
    // stale dirt while the flag arrays still cover the old id range.
    clear_dirt();
    rebuild_topology();
    resize_state(n_cells, n_nets);
    full = true;
  } else {
    resize_state(n_cells, n_nets);
    if (n_cells > known_cells_ || n_nets > known_nets_) {
      if (!sync_appended(known_cells_, known_nets_)) {
        rebuild_topology();
        full = true;
      }
    }
  }
  if (flat_dirty_) {
    rebuild_flat();
    flat_dirty_ = false;
  }

  const bool clk_empty = clock_arrival.empty();
  at_changed_ = false;
  if (!full) {
    diff_inputs(net_wirelength, clock_arrival);
    if (load_list_.empty() && delay_list_.empty() && launch_list_.empty() &&
        fwd_list_.empty() && req_list_.empty() && slack_list_.empty() &&
        clk_empty == clk_empty_) {
      // Bitwise-identical inputs: the retained report is already the answer.
      ++stats_.unchanged_calls;
      static obs::Counter& unchanged_counter =
          obs::MetricsRegistry::instance().counter(
              "sta.incremental.unchanged_calls",
              "analyze calls short-circuited on identical inputs");
      unchanged_counter.inc();
      return report_;
    }
    // When most of the design moved (routed wirelengths replacing the HPWL
    // estimate, a global stretch rescaling every net), the linear full-value
    // sweeps beat the dirty-set heaps; the full path computes the same
    // values in the same order, so falling back stays bitwise-identical.
    const std::size_t dirt = load_list_.size() + delay_list_.size() +
                             launch_list_.size() + fwd_list_.size() +
                             req_list_.size();
    if (dirt * 4 >= static_cast<std::size_t>(n_cells + n_nets)) full = true;
  }
  if (full) {
    clear_dirt();
    ++stats_.full_passes;
    static obs::Counter& full_counter =
        obs::MetricsRegistry::instance().counter(
            "sta.incremental.full_passes",
            "analyze calls that recomputed the whole design");
    full_counter.inc();
    VPR_TRACE_SPAN("sta.incremental.full_refresh", "sta");
    full_refresh(net_wirelength, clock_arrival, options);
    options_ = options;
    clk_empty_ = clk_empty;
    endpoint_pass(options, /*full=*/true);
    backward_full();
    metrics_pass(options, /*full=*/true);
    has_result_ = true;
    return report_;
  }
  {
    VPR_TRACE_SPAN("sta.incremental.forward", "sta");
    update_loads(options);
    update_stage_delays(options);
    update_launches();
    forward_sweep();
  }
  clk_empty_ = clk_empty;
  VPR_TRACE_SPAN("sta.incremental.backward", "sta");
  endpoint_pass(options, /*full=*/false);
  backward_incremental();
  metrics_pass(options, /*full=*/false);
  return report_;
}

}  // namespace vpr::sta
