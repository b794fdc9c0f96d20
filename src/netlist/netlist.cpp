#include "netlist/netlist.h"

#include <algorithm>
#include <set>
#include <stdexcept>
#include <string>

namespace vpr::netlist {

int Netlist::add_net() {
  nets_.emplace_back();
  return net_count() - 1;
}

int Netlist::add_cell(int type, const std::vector<int>& fanins, int out_net) {
  if (type < 0 || type >= library_.size()) {
    throw std::out_of_range("add_cell: bad type index");
  }
  const auto check_net = [&](int n) {
    if (n < 0 || n >= net_count()) throw std::out_of_range("add_cell: bad net");
  };
  for (const int n : fanins) check_net(n);
  check_net(out_net);
  if (nets_[static_cast<std::size_t>(out_net)].driver_cell != kNoDriver) {
    throw std::logic_error("add_cell: net already driven");
  }
  const auto& type_info = library_.cell(type);
  if (static_cast<int>(fanins.size()) != func_input_count(type_info.func)) {
    throw std::logic_error("add_cell: pin count mismatch for " +
                           type_info.name);
  }
  Cell cell;
  cell.type = type;
  cell.fanin_nets = fanins;
  cell.fanout_net = out_net;
  cells_.push_back(std::move(cell));
  const int id = cell_count() - 1;
  nets_[static_cast<std::size_t>(out_net)].driver_cell = id;
  for (const int n : fanins) {
    nets_[static_cast<std::size_t>(n)].sink_cells.push_back(id);
  }
  return id;
}

void Netlist::mark_primary_input(int net) {
  if (net < 0 || net >= net_count()) throw std::out_of_range("bad PI net");
  if (nets_[static_cast<std::size_t>(net)].driver_cell != kNoDriver) {
    throw std::logic_error("primary input net must be undriven");
  }
  primary_inputs_.push_back(net);
}

void Netlist::mark_primary_output(int net) {
  if (net < 0 || net >= net_count()) throw std::out_of_range("bad PO net");
  nets_[static_cast<std::size_t>(net)].is_primary_output = true;
  primary_outputs_.push_back(net);
}

void Netlist::retype_cell(int cell, int new_type) {
  if (cell < 0 || cell >= cell_count()) throw std::out_of_range("bad cell");
  if (new_type < 0 || new_type >= library_.size()) {
    throw std::out_of_range("bad type");
  }
  const auto& old_type = library_.cell(cells_[static_cast<std::size_t>(cell)].type);
  const auto& next_type = library_.cell(new_type);
  if (old_type.func != next_type.func) {
    throw std::logic_error("retype_cell: function change not allowed");
  }
  cells_[static_cast<std::size_t>(cell)].type = new_type;
}

int Netlist::insert_buffer_before(int sink_cell, int pin_index,
                                  int buffer_type) {
  if (sink_cell < 0 || sink_cell >= cell_count()) {
    throw std::out_of_range("insert_buffer_before: bad sink cell");
  }
  auto& sink = cells_[static_cast<std::size_t>(sink_cell)];
  if (pin_index < 0 ||
      pin_index >= static_cast<int>(sink.fanin_nets.size())) {
    throw std::out_of_range("insert_buffer_before: bad pin index");
  }
  const auto& buf_type = library_.cell(buffer_type);
  if (func_input_count(buf_type.func) != 1) {
    throw std::logic_error("insert_buffer_before: type is not a buffer");
  }
  const int old_net = sink.fanin_nets[static_cast<std::size_t>(pin_index)];
  const int new_net = add_net();
  const int buf = add_cell(buffer_type, {old_net}, new_net);
  // Move exactly one occurrence of the sink from the old net to the new.
  auto& old_sinks = nets_[static_cast<std::size_t>(old_net)].sink_cells;
  const auto it = std::find(old_sinks.begin(), old_sinks.end(), sink_cell);
  if (it == old_sinks.end()) {
    throw std::logic_error("insert_buffer_before: inconsistent connectivity");
  }
  old_sinks.erase(it);
  // Note: `sink` reference may be invalidated by add_cell's push_back.
  auto& sink_after = cells_[static_cast<std::size_t>(sink_cell)];
  sink_after.fanin_nets[static_cast<std::size_t>(pin_index)] = new_net;
  nets_[static_cast<std::size_t>(new_net)].sink_cells.push_back(sink_cell);
  // The buffer inherits its sink's locality hints.
  cells_[static_cast<std::size_t>(buf)].cluster = sink_after.cluster;
  cells_[static_cast<std::size_t>(buf)].activity = sink_after.activity;
  return buf;
}

void Netlist::set_cell_activity(int cell, double activity) {
  cells_.at(static_cast<std::size_t>(cell)).activity =
      std::clamp(activity, 0.0, 1.0);
}

void Netlist::set_cell_cluster(int cell, int cluster) {
  cells_.at(static_cast<std::size_t>(cell)).cluster = cluster;
}

std::vector<int> Netlist::flip_flops() const {
  std::vector<int> out;
  for (int i = 0; i < cell_count(); ++i) {
    if (is_flip_flop(i)) out.push_back(i);
  }
  return out;
}

double Netlist::total_area() const {
  double area = 0.0;
  for (int i = 0; i < cell_count(); ++i) area += cell_type(i).area;
  return area;
}

double Netlist::total_leakage() const {
  double leak = 0.0;
  for (int i = 0; i < cell_count(); ++i) leak += cell_type(i).leakage;
  return leak;
}

int Netlist::flip_flop_count() const {
  return static_cast<int>(flip_flops().size());
}

double Netlist::average_fanout() const {
  int driven = 0;
  int sinks = 0;
  for (const auto& net : nets_) {
    if (net.driver_cell == kNoDriver) continue;
    ++driven;
    sinks += static_cast<int>(net.sink_cells.size());
  }
  return driven > 0 ? static_cast<double>(sinks) / driven : 0.0;
}

double Netlist::weak_cell_fraction() const {
  if (cells_.empty()) return 0.0;
  int weak = 0;
  for (int i = 0; i < cell_count(); ++i) {
    if (cell_type(i).drive == 1) ++weak;
  }
  return static_cast<double>(weak) / cell_count();
}

int Netlist::cluster_count() const {
  std::set<int> clusters;
  for (const auto& c : cells_) clusters.insert(c.cluster);
  return static_cast<int>(clusters.size());
}

void Netlist::validate() const {
  for (int n = 0; n < net_count(); ++n) {
    const auto& net = nets_[static_cast<std::size_t>(n)];
    if (net.driver_cell != kNoDriver) {
      if (net.driver_cell < 0 || net.driver_cell >= cell_count()) {
        throw std::logic_error("net " + std::to_string(n) + ": bad driver");
      }
      if (cells_[static_cast<std::size_t>(net.driver_cell)].fanout_net != n) {
        throw std::logic_error("net " + std::to_string(n) +
                               ": driver does not point back");
      }
    }
    for (const int s : net.sink_cells) {
      if (s < 0 || s >= cell_count()) {
        throw std::logic_error("net " + std::to_string(n) + ": bad sink");
      }
    }
  }
  for (int c = 0; c < cell_count(); ++c) {
    const auto& cell = cells_[static_cast<std::size_t>(c)];
    const auto& type = library_.cell(cell.type);
    if (static_cast<int>(cell.fanin_nets.size()) !=
        func_input_count(type.func)) {
      throw std::logic_error("cell " + std::to_string(c) +
                             ": pin count mismatch");
    }
    for (const int n : cell.fanin_nets) {
      if (n < 0 || n >= net_count()) {
        throw std::logic_error("cell " + std::to_string(c) + ": bad fanin");
      }
      const auto& sinks = nets_[static_cast<std::size_t>(n)].sink_cells;
      if (std::count(sinks.begin(), sinks.end(), c) == 0) {
        throw std::logic_error("cell " + std::to_string(c) +
                               ": fanin net missing back-reference");
      }
    }
    if (cell.fanout_net < 0 || cell.fanout_net >= net_count() ||
        nets_[static_cast<std::size_t>(cell.fanout_net)].driver_cell != c) {
      throw std::logic_error("cell " + std::to_string(c) + ": bad fanout");
    }
  }
}

}  // namespace vpr::netlist
