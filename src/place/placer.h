#pragma once
// Global placement engine: cluster-seeded initial placement followed by
// force-directed refinement with density- and congestion-driven spreading
// on a bin grid. Produces normalized [0,1]^2 cell locations, the final
// half-perimeter wirelength, a density map, and a per-step trajectory
// (congestion / overflow / HPWL at each refinement step) that the insight
// analyzers consume ("congestion level during placement step X").
//
// The engine is partitioned for parallel execution with a bit-identical
// guarantee: results are the same for ANY worker count (1, 2, 4, ...),
// because every parallel phase is decomposed into a fixed number of units
// (cell/net chunks, spatial tiles) that write disjoint state, consume
// per-cell RNG streams derived by counter hashing (never a shared
// sequential stream), and merge partial reductions in fixed unit order.
// Worker count only decides how many units run concurrently.
//
//  - connectivity: the constructor flattens the netlist into CSR arrays
//    (net -> pins, driver first then sinks in order; cell -> nets, fanout
//    net then fanins in pin order) plus a per-cell area array, so the hot
//    loops never chase per-net/per-cell vectors;
//  - force step: per-net centroids then per-cell moves, both embarrassingly
//    parallel over fixed chunks;
//  - map pass: one chunked pass builds both density/RUDY partial maps, the
//    per-chunk HPWL partials (the trajectory's and the final HPWL) and each
//    cell's bin and spread class; partials merge in chunk order;
//  - spread step: cells whose 3x3 bin neighborhood lies inside one spatial
//    tile are processed tile-parallel (each tile owns its bins, so the
//    in-flight utilization updates never cross tiles); cells on tile
//    boundaries are deferred to a sequential fixup pass in cell order.
//    Whether a bin is tile-interior depends only on the grid, so the
//    constructor builds a per-bin table (tile id, or -1 on a boundary).
//    Each map chunk classifies its own cells by one lookup of their cached
//    bin; concatenating the chunks' lists in chunk order yields ascending
//    cell order, as a serial scan would.
//    The sequential fixup computes only what reads the in-flight
//    utilization map (the density test, the 3x3 argmin, the landing clamp,
//    the blockage test and the two utilization updates). Everything else
//    is precomputed where it runs in parallel or once: the constructor
//    tables each bin's in-grid neighbours (dy-major, dx-minor, the scan
//    order, so ties break alike), its blockage penalty, each column's
//    landing geometry and each cell's area over both bin capacities; the
//    map pass's normalization loop stores 0.5 * routing demand and the
//    congested test per bin (routing demand does not change during a
//    pass); and each map chunk draws the next pass's nudge deviates for
//    its boundary cells. Every precomputed value is the same expression on
//    the same operands, and a nudge stream depends only on (seed,
//    iteration, pass, cell), so the output is bitwise unchanged.

#include <array>
#include <cstdint>
#include <optional>
#include <span>
#include <vector>

#include "netlist/netlist.h"
#include "util/rng.h"
#include "util/thread_pool.h"

namespace vpr::place {

struct PlacerKnobs {
  double density_target = 0.78;   // max bin utilization before spreading
  double timing_weight = 0.0;     // strength of timing-driven net weights
  double congestion_effort = 0.3; // routing-congestion-driven spreading
  double perturbation = 0.3;      // annealing jitter scale
  int iterations = 5;             // refinement steps

  friend bool operator==(const PlacerKnobs&, const PlacerKnobs&) = default;
};

struct Placement {
  std::vector<double> x;  // per cell
  std::vector<double> y;
  int grid = 0;
  double hpwl = 0.0;                // final half-perimeter wirelength
  std::vector<double> bin_utilization;   // grid*grid, row-major
  std::vector<double> routing_demand;    // RUDY map, grid*grid

  /// Net half-perimeter in normalized units (driver + sinks bounding box).
  [[nodiscard]] double net_hpwl(const netlist::Netlist& nl, int net) const;
};

struct PlaceTrajectory {
  std::vector<double> step_congestion;  // fraction of routing-overflowed bins
  std::vector<double> step_overflow;    // mean density excess over target
  std::vector<double> step_hpwl;
};

/// Landing geometry of one grid column (or row, the grid is square) for
/// the spread step: the column's centre and the interval, 1e-3 bin widths
/// inside its edges, that a landing point is clamped to.
struct LandingColumn {
  double center = 0.0;
  double lo = 0.0;
  double hi = 0.0;
};

[[nodiscard]] LandingColumn landing_column(int v, int grid) noexcept;

/// Where a spread move lands along one axis: the column centre plus the
/// nudge, clamped into the column and then into the die [0.001, 0.999].
/// The landing point maps back to the column for any nudge, so a move only
/// writes bins of the cell's 3x3 neighborhood.
[[nodiscard]] double land(const LandingColumn& col, double nudge) noexcept;

class Placer {
 public:
  /// `workers` is the parallelism cap: 1 (the default) runs every unit
  /// inline on the calling thread; 0 lets the pool pick; any value yields
  /// bit-identical placements. `pool` overrides the shared pool (tests use
  /// a private pool so multi-worker runs make real threads on small
  /// hosts); ignored when workers == 1.
  Placer(const netlist::Netlist& netlist, PlacerKnobs knobs,
         std::uint64_t seed, int workers = 1,
         util::ThreadPool* pool = nullptr);

  /// Runs placement. `net_weights` (optional, size net_count) biases the
  /// force model toward timing-critical nets; pass {} for wirelength-only.
  /// `trajectory` (optional) receives per-step snapshots.
  [[nodiscard]] Placement run(std::span<const double> net_weights = {},
                              PlaceTrajectory* trajectory = nullptr);

  [[nodiscard]] int grid() const noexcept { return grid_; }

 private:
  // Fixed decomposition: results must not depend on worker count, so the
  // unit count never derives from it.
  static constexpr int kChunks = 16;    // cell/net chunks for reductions
  static constexpr int kTileSide = 4;   // spatial tile grid (kTileSide^2)
  static constexpr int kTiles = kTileSide * kTileSide;

  struct Scratch;  // per-run buffers, owned by run()

  void for_units(std::size_t n, const std::function<void(std::size_t)>& body) const;
  void seed_initial(Placement& p) const;
  void force_step(Placement& p, Scratch& s, double temperature,
                  int iteration) const;
  void spread_step(Placement& p, Scratch& s, int iteration) const;
  /// Rebuilds both maps and the spread classes; with `nudge_base`, also
  /// draws the next pass's nudges for the boundary cells.
  void update_maps(Placement& p, Scratch& s,
                   std::optional<std::uint64_t> nudge_base) const;
  [[nodiscard]] std::uint64_t nudge_base(int iteration, int pass) const;
  [[nodiscard]] bool in_blockage(double x, double y) const;
  [[nodiscard]] int bin_of(double x, double y) const;

  const netlist::Netlist& nl_;
  PlacerKnobs knobs_;
  std::uint64_t seed_;
  int workers_;
  util::ThreadPool* pool_;
  int grid_;
  double bin_capacity_;            // area units per bin at 100% utilization
  std::vector<double> bin_cap_;    // per-bin capacity (blockage-derated)
  double routing_capacity_;        // RUDY demand a bin can absorb
  std::vector<int> interior_tile_; // per bin: its tile if interior, else -1
  // Per bin: its in-grid 3x3 neighbours, dy-major then dx-minor, are
  // neighbors_[neighbor_begin_[b] .. neighbor_begin_[b+1]).
  std::vector<int> neighbor_begin_;
  std::vector<int> neighbors_;
  std::vector<double> bin_penalty_;      // 10.0 in a blockage, else 0.0
  std::vector<std::uint8_t> bin_derated_;  // 1 where bin_cap_ is derated
  std::vector<LandingColumn> columns_;   // per grid column (and row)
  // Flat connectivity (CSR): pins of net n are
  // net_pins_[net_begin_[n] .. net_begin_[n+1]); nets of cell c likewise.
  std::vector<std::size_t> net_begin_;
  std::vector<int> net_pins_;
  std::vector<std::size_t> cell_begin_;
  std::vector<int> cell_nets_;
  std::vector<double> cell_area_;
  // Per cell: area / max(cap, 1e-12) for the full and the derated bin
  // capacity, the only two values bin_cap_ holds.
  std::vector<std::array<double, 2>> cell_load_;
};

}  // namespace vpr::place
