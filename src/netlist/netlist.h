#pragma once
// Gate-level netlist: cells, nets and connectivity, plus the design-level
// constraints (clock period, IO) that the flow engines consume. Invariant:
// every net has at most one driver; every cell input references an existing
// net; flip-flops have exactly one data input.

#include <string>
#include <vector>

#include "netlist/library.h"

namespace vpr::netlist {

inline constexpr int kNoDriver = -1;

struct Cell {
  int type = 0;                 // index into CellLibrary
  std::vector<int> fanin_nets;  // nets driving the input pins, in pin order
  int fanout_net = kNoDriver;   // net driven by the output pin
  int cluster = 0;              // connectivity cluster (placement hint)
  double activity = 0.1;        // output toggle probability per cycle
};

struct Net {
  int driver_cell = kNoDriver;  // kNoDriver => primary input
  std::vector<int> sink_cells;  // cells with an input pin on this net
                                // (duplicates allowed for multi-pin use)
  bool is_primary_output = false;
};

/// Rectangular placement blockage (e.g. a macro) in normalized die
/// coordinates [0,1]^2.
struct Blockage {
  double x0 = 0, y0 = 0, x1 = 0, y1 = 0;
};

class Netlist {
 public:
  Netlist(std::string name, CellLibrary library, double clock_period_ns)
      : name_(std::move(name)),
        library_(std::move(library)),
        clock_period_(clock_period_ns) {}

  // ----- Construction -----
  /// Adds a net; returns its id.
  int add_net();
  /// Adds a cell of the given library type driving `out_net` with inputs
  /// `fanins`; returns the cell id and updates net connectivity.
  int add_cell(int type, const std::vector<int>& fanins, int out_net);
  void mark_primary_input(int net);
  void mark_primary_output(int net);
  void add_blockage(const Blockage& b) { blockages_.push_back(b); }
  /// Re-type an existing cell (sizing / VT swap). Connectivity unchanged.
  void retype_cell(int cell, int new_type);
  /// Splices a buffer of `buffer_type` into pin `pin_index` of `sink_cell`
  /// (used by hold fixing). Returns the new buffer cell's id.
  int insert_buffer_before(int sink_cell, int pin_index, int buffer_type);
  void set_cell_activity(int cell, double activity);
  void set_cell_cluster(int cell, int cluster);

  // ----- Access -----
  [[nodiscard]] const std::string& name() const noexcept { return name_; }
  [[nodiscard]] const CellLibrary& library() const noexcept { return library_; }
  [[nodiscard]] double clock_period() const noexcept { return clock_period_; }
  [[nodiscard]] int cell_count() const noexcept {
    return static_cast<int>(cells_.size());
  }
  [[nodiscard]] int net_count() const noexcept {
    return static_cast<int>(nets_.size());
  }
  [[nodiscard]] const Cell& cell(int id) const { return cells_.at(id); }
  [[nodiscard]] const Net& net(int id) const { return nets_.at(id); }
  [[nodiscard]] const CellType& cell_type(int cell_id) const {
    return library_.cell(cells_.at(cell_id).type);
  }
  [[nodiscard]] const std::vector<int>& primary_inputs() const noexcept {
    return primary_inputs_;
  }
  [[nodiscard]] const std::vector<int>& primary_outputs() const noexcept {
    return primary_outputs_;
  }
  [[nodiscard]] const std::vector<Blockage>& blockages() const noexcept {
    return blockages_;
  }
  [[nodiscard]] bool is_flip_flop(int cell_id) const {
    return cell_type(cell_id).kind == CellKind::kFlipFlop;
  }
  /// Ids of all flip-flop cells (clock sinks for CTS).
  [[nodiscard]] std::vector<int> flip_flops() const;

  // ----- Aggregate statistics -----
  [[nodiscard]] double total_area() const;
  [[nodiscard]] double total_leakage() const;
  [[nodiscard]] int flip_flop_count() const;
  [[nodiscard]] double average_fanout() const;
  /// Fraction of cells with the weakest drive strength.
  [[nodiscard]] double weak_cell_fraction() const;
  [[nodiscard]] int cluster_count() const;

  /// Structural validation (single driver per net, pin counts, valid ids);
  /// throws std::logic_error on the first violation.
  void validate() const;

 private:
  std::string name_;
  CellLibrary library_;
  double clock_period_;
  std::vector<Cell> cells_;
  std::vector<Net> nets_;
  std::vector<int> primary_inputs_;
  std::vector<int> primary_outputs_;
  std::vector<Blockage> blockages_;
};

}  // namespace vpr::netlist
