#include "place/placer.h"

#include <algorithm>
#include <array>
#include <cmath>
#include <stdexcept>

#include "obs/trace.h"

namespace vpr::place {

namespace {
constexpr double kMinSpan = 1e-4;  // minimum net bbox span for RUDY

// Stream tags separating the per-cell RNG families (seed_initial jitter,
// force-step perturbation, spread-step nudges). Each cell draws from
// Rng{hash_combine(hash_combine(seed, tag-or-step), cell)} — a counter-based
// stream that is identical no matter which worker processes the cell.
constexpr std::uint64_t kSeedJitterTag = 0x51eed0f1ac3d11ULL;
constexpr std::uint64_t kForceTag = 0xf02cede11aULL;
constexpr std::uint64_t kSpreadTag = 0x52b3adce77ULL;

/// Unit ch of kChunks covers [n*ch/kChunks, n*(ch+1)/kChunks).
std::pair<std::size_t, std::size_t> chunk_range(std::size_t n, std::size_t ch,
                                                std::size_t chunks) {
  return {n * ch / chunks, n * (ch + 1) / chunks};
}

/// Bounding box of a net (driver + sinks).
struct Bbox {
  double x0 = 1.0, y0 = 1.0, x1 = 0.0, y1 = 0.0;
  int pins = 0;
  void expand(double x, double y) {
    x0 = std::min(x0, x);
    y0 = std::min(y0, y);
    x1 = std::max(x1, x);
    y1 = std::max(y1, y);
    ++pins;
  }
  [[nodiscard]] double hpwl() const {
    return pins >= 2 ? (x1 - x0) + (y1 - y0) : 0.0;
  }
};

/// The two deviates (x, then y) that nudge cell `cell`'s spread move in
/// the pass whose stream base is `base`.
std::array<double, 2> draw_nudge(std::uint64_t base, std::size_t cell,
                                 int grid) {
  util::Rng rng{util::hash_combine(base, static_cast<std::uint64_t>(cell))};
  const double dx = rng.normal(0.0, 0.2 / grid);
  const double dy = rng.normal(0.0, 0.2 / grid);
  return {dx, dy};
}

Bbox net_bbox(const netlist::Netlist& nl, const Placement& p, int net_id) {
  Bbox bb;
  const auto& net = nl.net(net_id);
  if (net.driver_cell != netlist::kNoDriver) {
    bb.expand(p.x[static_cast<std::size_t>(net.driver_cell)],
              p.y[static_cast<std::size_t>(net.driver_cell)]);
  }
  for (const int s : net.sink_cells) {
    bb.expand(p.x[static_cast<std::size_t>(s)],
              p.y[static_cast<std::size_t>(s)]);
  }
  return bb;
}

}  // namespace

/// Buffers one run() reuses across its steps instead of reallocating them
/// per call. Chunk ch writes only index ch of every per-chunk array.
struct Placer::Scratch {
  std::vector<double> pull_weight;  // per net, fixed for the run
  std::vector<double> net_cx;       // per net centroid
  std::vector<double> net_cy;
  std::vector<int> cell_bin;        // per cell, as of the last map pass
  std::array<std::vector<double>, kChunks> util_part;
  std::array<std::vector<double>, kChunks> demand_part;
  std::array<double, kChunks> hpwl_part{};
  // Spread classes as of the last map pass: per chunk, the chunk's cells
  // in each tile's interior, and those on tile boundaries.
  std::array<std::array<std::vector<int>, kTiles>, kChunks> tile_part;
  std::array<std::vector<int>, kChunks> boundary_part;
  // The next pass's (x, y) nudge of each boundary_part cell, in its order.
  std::array<std::vector<std::array<double, 2>>, kChunks> nudge_part;
  // Per bin, as of the last map pass: 0.5 * routing demand, and whether
  // routing congestion alone makes its cells spread.
  std::vector<double> half_demand;
  std::vector<std::uint8_t> congested;
  double hpwl = 0.0;  // total HPWL as of the last map pass
};

double Placement::net_hpwl(const netlist::Netlist& nl, int net) const {
  return net_bbox(nl, *this, net).hpwl();
}

LandingColumn landing_column(int v, int grid) noexcept {
  return {.center = (v + 0.5) / grid,
          .lo = (v + 1e-3) / grid,
          .hi = (v + 1.0 - 1e-3) / grid};
}

double land(const LandingColumn& col, double nudge) noexcept {
  return std::clamp(std::clamp(col.center + nudge, col.lo, col.hi), 0.001,
                    0.999);
}

Placer::Placer(const netlist::Netlist& netlist, PlacerKnobs knobs,
               std::uint64_t seed, int workers, util::ThreadPool* pool)
    : nl_(netlist), knobs_(knobs), seed_(seed), workers_(workers),
      pool_(pool) {
  if (knobs_.iterations < 1) {
    throw std::invalid_argument("PlacerKnobs.iterations must be >= 1");
  }
  knobs_.density_target = std::clamp(knobs_.density_target, 0.4, 0.98);
  knobs_.congestion_effort = std::clamp(knobs_.congestion_effort, 0.0, 1.0);
  knobs_.timing_weight = std::clamp(knobs_.timing_weight, 0.0, 1.0);
  knobs_.perturbation = std::clamp(knobs_.perturbation, 0.0, 1.0);

  // Grid scales with design size: ~20 cells per bin.
  grid_ = std::clamp(static_cast<int>(std::sqrt(nl_.cell_count() / 20.0)), 8,
                     64);
  // Die sized for ~65% average utilization.
  const double die_area_units = nl_.total_area() / 0.65;
  bin_capacity_ = die_area_units / (grid_ * grid_);

  bin_cap_.assign(static_cast<std::size_t>(grid_) * grid_, bin_capacity_);
  for (int by = 0; by < grid_; ++by) {
    for (int bx = 0; bx < grid_; ++bx) {
      const double cx = (bx + 0.5) / grid_;
      const double cy = (by + 0.5) / grid_;
      if (in_blockage(cx, cy)) {
        bin_cap_[static_cast<std::size_t>(by) * grid_ + bx] =
            bin_capacity_ * 0.05;
      }
    }
  }
  // Routing headroom over mean demand. Advanced nodes have proportionally
  // fewer usable tracks for the same cell count, so hotspots overflow
  // sooner there.
  const double node_scale =
      std::clamp(nl_.library().node().feature_nm / 45.0, 0.1, 1.0);
  routing_capacity_ = 1.35 + 0.75 * node_scale;

  // Each bin's in-grid 3x3 neighborhood, in the order the spread step's
  // argmin scans it (dy-major, dx-minor), so ties break alike.
  neighbor_begin_.reserve(bin_cap_.size() + 1);
  neighbor_begin_.push_back(0);
  for (int by = 0; by < grid_; ++by) {
    for (int bx = 0; bx < grid_; ++bx) {
      for (int dy = -1; dy <= 1; ++dy) {
        for (int dx = -1; dx <= 1; ++dx) {
          const int nx = bx + dx;
          const int ny = by + dy;
          if (nx < 0 || ny < 0 || nx >= grid_ || ny >= grid_) continue;
          neighbors_.push_back(ny * grid_ + nx);
        }
      }
      neighbor_begin_.push_back(static_cast<int>(neighbors_.size()));
    }
  }
  // A bin is tile-interior when every bin of its neighborhood maps to its
  // own tile; a cell's class in the spread step depends only on its bin,
  // so it is looked up here instead of rechecked per cell.
  const auto tile_of_bin = [this](int b) {
    return (b / grid_ * kTileSide / grid_) * kTileSide +
           (b % grid_ * kTileSide / grid_);
  };
  interior_tile_.assign(bin_cap_.size(), -1);
  for (int b = 0; b < grid_ * grid_; ++b) {
    const int tile = tile_of_bin(b);
    if (std::all_of(neighbors_.begin() + neighbor_begin_[b],
                    neighbors_.begin() + neighbor_begin_[b + 1],
                    [&](int nb) { return tile_of_bin(nb) == tile; })) {
      interior_tile_[static_cast<std::size_t>(b)] = tile;
    }
  }
  // The argmin's other pass-static terms: each bin's blockage penalty,
  // which of the two capacities it has, and the landing geometry.
  bin_penalty_.reserve(bin_cap_.size());
  bin_derated_.reserve(bin_cap_.size());
  for (const double cap : bin_cap_) {
    bin_penalty_.push_back(cap < bin_capacity_ * 0.5 ? 10.0 : 0.0);
    bin_derated_.push_back(cap != bin_capacity_ ? 1 : 0);
  }
  columns_.reserve(static_cast<std::size_t>(grid_));
  for (int v = 0; v < grid_; ++v) columns_.push_back(landing_column(v, grid_));

  const int n = nl_.cell_count();
  const int nets = nl_.net_count();
  net_begin_.reserve(static_cast<std::size_t>(nets) + 1);
  net_begin_.push_back(0);
  for (int net = 0; net < nets; ++net) {
    const auto& info = nl_.net(net);
    if (info.driver_cell != netlist::kNoDriver) {
      net_pins_.push_back(info.driver_cell);
    }
    net_pins_.insert(net_pins_.end(), info.sink_cells.begin(),
                     info.sink_cells.end());
    net_begin_.push_back(net_pins_.size());
  }
  cell_begin_.reserve(static_cast<std::size_t>(n) + 1);
  cell_begin_.push_back(0);
  cell_area_.reserve(static_cast<std::size_t>(n));
  cell_load_.reserve(static_cast<std::size_t>(n));
  const double full_cap = std::max(bin_capacity_, 1e-12);
  const double derated_cap = std::max(bin_capacity_ * 0.05, 1e-12);
  for (int c = 0; c < n; ++c) {
    const auto& cell = nl_.cell(c);
    cell_nets_.push_back(cell.fanout_net);
    cell_nets_.insert(cell_nets_.end(), cell.fanin_nets.begin(),
                      cell.fanin_nets.end());
    cell_begin_.push_back(cell_nets_.size());
    const double area = nl_.cell_type(c).area;
    cell_area_.push_back(area);
    cell_load_.push_back({area / full_cap, area / derated_cap});
  }
}

void Placer::for_units(std::size_t n,
                       const std::function<void(std::size_t)>& body) const {
  // Units write disjoint state and draw counter-hashed RNG streams, so
  // which thread runs a unit is irrelevant to the result — only whether
  // the units run at all. workers_ == 1 stays off the pool entirely.
  if (workers_ == 1 || n <= 1) {
    for (std::size_t i = 0; i < n; ++i) body(i);
    return;
  }
  util::ThreadPool& pool =
      pool_ != nullptr ? *pool_ : util::ThreadPool::shared();
  pool.parallel_for(n, body,
                    workers_ > 0 ? static_cast<unsigned>(workers_) : 0);
}

bool Placer::in_blockage(double x, double y) const {
  for (const auto& b : nl_.blockages()) {
    if (x >= b.x0 && x <= b.x1 && y >= b.y0 && y <= b.y1) return true;
  }
  return false;
}

int Placer::bin_of(double x, double y) const {
  const int bx = std::clamp(static_cast<int>(x * grid_), 0, grid_ - 1);
  const int by = std::clamp(static_cast<int>(y * grid_), 0, grid_ - 1);
  return by * grid_ + bx;
}

void Placer::seed_initial(Placement& p) const {
  const int n = nl_.cell_count();
  p.x.assign(static_cast<std::size_t>(n), 0.5);
  p.y.assign(static_cast<std::size_t>(n), 0.5);
  p.grid = grid_;
  // Cluster centers on a jittered ring/grid layout. Few of them — placed
  // sequentially from one dedicated stream.
  const int n_clusters = std::max(1, nl_.cluster_count());
  std::vector<double> cx(static_cast<std::size_t>(n_clusters));
  std::vector<double> cy(static_cast<std::size_t>(n_clusters));
  const int side = std::max(1, static_cast<int>(std::ceil(std::sqrt(
                                    static_cast<double>(n_clusters)))));
  util::Rng cluster_rng{util::hash_combine(seed_, 0xc7a51e12ULL)};
  for (int c = 0; c < n_clusters; ++c) {
    const int gx = c % side;
    const int gy = c / side;
    cx[static_cast<std::size_t>(c)] = std::clamp(
        (gx + 0.5) / side + cluster_rng.normal(0.0, 0.05), 0.02, 0.98);
    cy[static_cast<std::size_t>(c)] = std::clamp(
        (gy + 0.5) / side + cluster_rng.normal(0.0, 0.05), 0.02, 0.98);
  }
  const std::uint64_t jitter_base = util::hash_combine(seed_, kSeedJitterTag);
  for_units(kChunks, [&](std::size_t ch) {
    const auto [begin, end] =
        chunk_range(static_cast<std::size_t>(n), ch, kChunks);
    for (std::size_t i = begin; i < end; ++i) {
      const int c =
          std::clamp(nl_.cell(static_cast<int>(i)).cluster, 0, n_clusters - 1);
      util::Rng rng{util::hash_combine(jitter_base, i)};
      for (int attempt = 0; attempt < 8; ++attempt) {
        const double x = std::clamp(
            cx[static_cast<std::size_t>(c)] + rng.normal(0.0, 0.12), 0.001,
            0.999);
        const double y = std::clamp(
            cy[static_cast<std::size_t>(c)] + rng.normal(0.0, 0.12), 0.001,
            0.999);
        p.x[i] = x;
        p.y[i] = y;
        if (!in_blockage(x, y)) break;
      }
    }
  });
}

void Placer::force_step(Placement& p, Scratch& s, double temperature,
                        int iteration) const {
  const int n = nl_.cell_count();
  const int nets = nl_.net_count();
  // Net centroids (cheap star model), accumulated net-major: each net sums
  // its driver then its sinks, so a net's centroid is one unit of work and
  // the FP order is fixed regardless of how many nets run concurrently.
  for_units(kChunks, [&](std::size_t ch) {
    const auto [begin, end] =
        chunk_range(static_cast<std::size_t>(nets), ch, kChunks);
    for (std::size_t net = begin; net < end; ++net) {
      const int pins = static_cast<int>(net_begin_[net + 1] - net_begin_[net]);
      double sx = 0.0;
      double sy = 0.0;
      for (std::size_t k = net_begin_[net]; k < net_begin_[net + 1]; ++k) {
        const auto pin = static_cast<std::size_t>(net_pins_[k]);
        sx += p.x[pin];
        sy += p.y[pin];
      }
      s.net_cx[net] = pins > 0 ? sx / pins : 0.0;
      s.net_cy[net] = pins > 0 ? sy / pins : 0.0;
    }
  });
  // Move each cell toward the weighted centroid of its nets' centroids.
  // Reads: its own coordinates + the frozen centroid arrays. Writes: its
  // own coordinates. Fully parallel, per-cell RNG stream for the jitter.
  const double step = 0.35;
  const std::uint64_t move_base =
      util::hash_combine(util::hash_combine(seed_, kForceTag),
                         static_cast<std::uint64_t>(iteration));
  for_units(kChunks, [&](std::size_t ch) {
    const auto [begin, end] =
        chunk_range(static_cast<std::size_t>(n), ch, kChunks);
    for (std::size_t i = begin; i < end; ++i) {
      double tx = 0.0;
      double ty = 0.0;
      double wsum = 0.0;
      // The fanout net, then the fanins in pin order.
      for (std::size_t k = cell_begin_[i]; k < cell_begin_[i + 1]; ++k) {
        const auto net = static_cast<std::size_t>(cell_nets_[k]);
        const double w = s.pull_weight[net];
        tx += w * s.net_cx[net];
        ty += w * s.net_cy[net];
        wsum += w;
      }
      if (wsum <= 0.0) continue;
      tx /= wsum;
      ty /= wsum;
      util::Rng rng{util::hash_combine(move_base, i)};
      double nx = p.x[i] + step * (tx - p.x[i]) +
                  rng.normal(0.0, 0.02 * temperature * knobs_.perturbation);
      double ny = p.y[i] + step * (ty - p.y[i]) +
                  rng.normal(0.0, 0.02 * temperature * knobs_.perturbation);
      nx = std::clamp(nx, 0.001, 0.999);
      ny = std::clamp(ny, 0.001, 0.999);
      if (!in_blockage(nx, ny)) {
        p.x[i] = nx;
        p.y[i] = ny;
      }
    }
  });
}

std::uint64_t Placer::nudge_base(int iteration, int pass) const {
  return util::hash_combine(util::hash_combine(seed_, kSpreadTag),
                            (static_cast<std::uint64_t>(iteration) << 8) |
                                static_cast<std::uint64_t>(pass));
}

void Placer::update_maps(Placement& p, Scratch& s,
                         std::optional<std::uint64_t> nudge_base) const {
  obs::TraceSpan span{"place.maps", "place"};
  span.arg("cells", nl_.cell_count());
  span.arg("nets", nl_.net_count());
  const std::size_t bins = static_cast<std::size_t>(grid_) * grid_;
  // Per-chunk partial maps and HPWL sums, merged in fixed chunk order: the
  // FP sums are independent of worker count.
  for_units(kChunks, [&](std::size_t ch) {
    auto& util = s.util_part[ch];
    auto& demand = s.demand_part[ch];
    util.assign(bins, 0.0);
    demand.assign(bins, 0.0);
    auto& tiles = s.tile_part[ch];
    auto& boundary = s.boundary_part[ch];
    auto& nudges = s.nudge_part[ch];
    for (auto& t : tiles) t.clear();
    boundary.clear();
    nudges.clear();
    // Density, each cell's bin, and its spread class: a cell in a
    // tile-interior bin reads and writes only inside that tile. A boundary
    // cell's nudges are drawn here, off the sequential fixup; its stream
    // is its own, so drawing it early or unused changes no other draw.
    const auto [cb, ce] = chunk_range(
        static_cast<std::size_t>(nl_.cell_count()), ch, kChunks);
    for (std::size_t c = cb; c < ce; ++c) {
      const int b = bin_of(p.x[c], p.y[c]);
      s.cell_bin[c] = b;
      util[static_cast<std::size_t>(b)] += cell_area_[c];
      const int tile = interior_tile_[static_cast<std::size_t>(b)];
      if (tile >= 0) {
        tiles[static_cast<std::size_t>(tile)].push_back(static_cast<int>(c));
        continue;
      }
      boundary.push_back(static_cast<int>(c));
      if (nudge_base) nudges.push_back(draw_nudge(*nudge_base, c, grid_));
    }
    // RUDY-style demand: each net spreads its half-perimeter wirelength
    // uniformly over the bins its bounding box covers. The same boxes give
    // the chunk's HPWL, summed in net order.
    const auto [nb, ne] = chunk_range(
        static_cast<std::size_t>(nl_.net_count()), ch, kChunks);
    double hpwl = 0.0;
    for (std::size_t net = nb; net < ne; ++net) {
      Bbox bb;
      for (std::size_t k = net_begin_[net]; k < net_begin_[net + 1]; ++k) {
        const auto pin = static_cast<std::size_t>(net_pins_[k]);
        bb.expand(p.x[pin], p.y[pin]);
      }
      hpwl += bb.hpwl();
      if (bb.pins < 2) continue;
      const double d = std::max(bb.hpwl(), kMinSpan);
      const int bx0 = std::clamp(static_cast<int>(bb.x0 * grid_), 0, grid_ - 1);
      const int bx1 = std::clamp(static_cast<int>(bb.x1 * grid_), 0, grid_ - 1);
      const int by0 = std::clamp(static_cast<int>(bb.y0 * grid_), 0, grid_ - 1);
      const int by1 = std::clamp(static_cast<int>(bb.y1 * grid_), 0, grid_ - 1);
      const double per_bin = d / ((bx1 - bx0 + 1) * (by1 - by0 + 1));
      // Each covered bin gets one `+= per_bin` per net, in net order; the
      // row pointer and 4-way unroll only drop the per-bin index math.
      for (int by = by0; by <= by1; ++by) {
        double* row = demand.data() + static_cast<std::size_t>(by) * grid_;
        int bx = bx0;
        for (; bx + 3 <= bx1; bx += 4) {
          row[bx] += per_bin;
          row[bx + 1] += per_bin;
          row[bx + 2] += per_bin;
          row[bx + 3] += per_bin;
        }
        for (; bx <= bx1; ++bx) row[bx] += per_bin;
      }
    }
    s.hpwl_part[ch] = hpwl;
  });
  p.bin_utilization.assign(bins, 0.0);
  p.routing_demand.assign(bins, 0.0);
  s.hpwl = 0.0;
  for (std::size_t ch = 0; ch < kChunks; ++ch) {
    for (std::size_t b = 0; b < bins; ++b) {
      p.bin_utilization[b] += s.util_part[ch][b];
      p.routing_demand[b] += s.demand_part[ch][b];
    }
    s.hpwl += s.hpwl_part[ch];
  }
  for (std::size_t b = 0; b < bins; ++b) {
    p.bin_utilization[b] /= std::max(bin_cap_[b], 1e-12);
  }
  // Normalize to capacity units (1.0 == at capacity). The routing fabric is
  // sized against mean demand: routing_capacity_ is the headroom multiplier
  // (tighter at advanced nodes), so congestion measures hotspot intensity,
  // derated further inside macro blockages.
  double mean_demand = 0.0;
  for (const double d : p.routing_demand) mean_demand += d;
  mean_demand /= std::max<std::size_t>(1, p.routing_demand.size());
  const double cap = std::max(routing_capacity_ * mean_demand, 1e-12);
  // The spread step's per-bin routing terms are fixed until the next map
  // pass, so they are stored here rather than recomputed per visit.
  const bool congestion = knobs_.congestion_effort > 0.0;
  const double congested_above = 1.0 - 0.4 * knobs_.congestion_effort;
  s.half_demand.resize(bins);
  s.congested.resize(bins);
  for (std::size_t b = 0; b < bins; ++b) {
    const double blockage_derate =
        bin_cap_[b] < bin_capacity_ * 0.5 ? 0.25 : 1.0;
    p.routing_demand[b] /= cap * blockage_derate;
    s.half_demand[b] = 0.5 * p.routing_demand[b];
    s.congested[b] = congestion && p.routing_demand[b] > congested_above;
  }
}

void Placer::spread_step(Placement& p, Scratch& s, int iteration) const {
  const int passes =
      1 + static_cast<int>(std::lround(2.0 * knobs_.congestion_effort));
  update_maps(p, s, nudge_base(iteration, 0));
  for (int pass = 0; pass < passes; ++pass) {
    const std::uint64_t base = nudge_base(iteration, pass);
    // Moves one cell toward the least-loaded bin of its 3x3 neighborhood,
    // keeping the in-flight utilization map current; `nudge(c)` yields the
    // cell's (x, y) deviates and is called only when it leaves its bin.
    // land() keeps the landing point INSIDE the chosen bin, so a move only
    // ever writes bins in the 3x3 neighborhood — the guarantee tile
    // disjointness rests on. A cell is processed at most once per pass and
    // only its own move changes its position, so the map pass's cached bin
    // is still its bin. Returns whether the cell moved.
    const auto process_cell = [&](int c, const auto& nudge) {
      const std::size_t ci = static_cast<std::size_t>(c);
      const std::size_t b = static_cast<std::size_t>(s.cell_bin[ci]);
      const bool too_dense = p.bin_utilization[b] > knobs_.density_target;
      if (!too_dense && s.congested[b] == 0) return false;
      double best_score = 1e18;
      std::size_t best = b;
      for (int k = neighbor_begin_[b]; k < neighbor_begin_[b + 1]; ++k) {
        const auto nb = static_cast<std::size_t>(neighbors_[k]);
        const double score = p.bin_utilization[nb] + s.half_demand[nb] +
                             bin_penalty_[nb];
        if (score < best_score) {
          best_score = score;
          best = nb;
        }
      }
      if (best == b) return false;
      const auto [dx, dy] = nudge(c);
      const double nxp = land(columns_[best % grid_], dx);
      const double nyp = land(columns_[best / grid_], dy);
      if (in_blockage(nxp, nyp)) return false;
      p.x[ci] = nxp;
      p.y[ci] = nyp;
      // Keep the utilization map roughly current while spreading.
      const auto& load = cell_load_[ci];
      p.bin_utilization[b] -= load[bin_derated_[b]];
      const auto nb = static_cast<std::size_t>(bin_of(nxp, nyp));
      p.bin_utilization[nb] += load[bin_derated_[nb]];
      return true;
    };
    // Tiles run concurrently without interacting and draw their nudges
    // inline; boundary cells are fixed up sequentially (in cell order)
    // after the tiles finish, with the nudges their map chunk drew. The
    // map pass classified each chunk's cells; chunk order is cell order.
    std::size_t boundary = 0;
    for (const auto& part : s.boundary_part) boundary += part.size();
    const std::size_t interior =
        static_cast<std::size_t>(nl_.cell_count()) - boundary;
    {
      VPR_TRACE_SPAN("place.spread.tiles", "place",
                     obs::TraceArgs{{"pass", pass}, {"cells", interior}});
      const auto draw = [&](int c) {
        return draw_nudge(base, static_cast<std::size_t>(c), grid_);
      };
      for_units(kTiles, [&](std::size_t tile) {
        for (const auto& part : s.tile_part) {
          for (const int c : part[tile]) process_cell(c, draw);
        }
      });
    }
    {
      obs::TraceSpan span{"place.spread.boundary", "place",
                          obs::TraceArgs{{"cells", boundary}}};
      std::size_t moved = 0;
      for (std::size_t ch = 0; ch < kChunks; ++ch) {
        const auto& cells = s.boundary_part[ch];
        const auto& nudges = s.nudge_part[ch];
        for (std::size_t i = 0; i < cells.size(); ++i) {
          if (process_cell(cells[i], [&](int) { return nudges[i]; })) ++moved;
        }
      }
      span.arg("moved", moved);
    }
    update_maps(p, s,
                pass + 1 < passes
                    ? std::optional{nudge_base(iteration, pass + 1)}
                    : std::nullopt);
  }
}

Placement Placer::run(std::span<const double> net_weights,
                      PlaceTrajectory* trajectory) {
  if (!net_weights.empty() &&
      net_weights.size() != static_cast<std::size_t>(nl_.net_count())) {
    throw std::invalid_argument("Placer::run: net_weights size mismatch");
  }
  VPR_TRACE_SPAN("place.run", "place",
                 obs::TraceArgs{{"cells", static_cast<std::int64_t>(
                                              nl_.cell_count())},
                                {"workers", static_cast<std::int64_t>(
                                                workers_)}});
  const auto nets = static_cast<std::size_t>(nl_.net_count());
  Scratch s;
  s.net_cx.resize(nets);
  s.net_cy.resize(nets);
  s.cell_bin.resize(static_cast<std::size_t>(nl_.cell_count()));
  // Force-model pull of each net, fixed for the run: high-fanout nets pull
  // weakly (star model degenerates otherwise), timing-critical ones harder.
  s.pull_weight.resize(nets);
  for (std::size_t net = 0; net < nets; ++net) {
    const auto pins = static_cast<int>(net_begin_[net + 1] - net_begin_[net]);
    double w = 1.0 / std::max(1.0, std::sqrt(static_cast<double>(pins)));
    if (!net_weights.empty()) {
      w *= 1.0 + knobs_.timing_weight * 4.0 * net_weights[net];
    }
    s.pull_weight[net] = w;
  }
  Placement p;
  // No map build here: the force step reads only x/y, and every spread
  // step rebuilds both maps before it reads them.
  seed_initial(p);
  for (int it = 0; it < knobs_.iterations; ++it) {
    const double temperature =
        1.0 - static_cast<double>(it) / knobs_.iterations;
    {
      VPR_TRACE_SPAN("place.force", "place");
      force_step(p, s, temperature, it);
    }
    {
      VPR_TRACE_SPAN("place.spread", "place");
      spread_step(p, s, it);
    }
    // The spread step ends with a map pass at the final positions, so its
    // HPWL is this step's.
    if (trajectory != nullptr) {
      int overflowed = 0;
      double excess = 0.0;
      const std::size_t bins = p.routing_demand.size();
      for (std::size_t b = 0; b < bins; ++b) {
        if (p.routing_demand[b] > 1.0) ++overflowed;
        excess += std::max(0.0, p.bin_utilization[b] - knobs_.density_target);
      }
      trajectory->step_congestion.push_back(
          static_cast<double>(overflowed) / static_cast<double>(bins));
      trajectory->step_overflow.push_back(excess /
                                          static_cast<double>(bins));
      trajectory->step_hpwl.push_back(s.hpwl);
    }
  }
  p.hpwl = s.hpwl;
  return p;
}

}  // namespace vpr::place
