#include "netlist/verilog.h"

#include <algorithm>
#include <istream>
#include <map>
#include <ostream>
#include <sstream>
#include <stdexcept>
#include <vector>

namespace vpr::netlist {

namespace {

/// Input pin names by position, per function arity.
const char* input_pin_name(const CellType& type, int pin) {
  if (type.func == Func::kDff) return "D";
  constexpr const char* kNames[] = {"A", "B", "C"};
  return kNames[pin];
}

const char* output_pin_name(const CellType& type) {
  return type.func == Func::kDff ? "Q" : "Y";
}

std::string net_name(int n) {
  std::string name = "n";
  name += std::to_string(n);
  return name;
}

[[noreturn]] void fail(int line, const std::string& message) {
  throw std::runtime_error("read_verilog: line " + std::to_string(line) +
                           ": " + message);
}

}  // namespace

void write_verilog(const Netlist& nl, std::ostream& os) {
  const auto& node = nl.library().node();
  os << "// Structural netlist written by vpr::netlist::write_verilog\n";
  os << "// pragma node " << node.name << ' ' << node.feature_nm << '\n';
  os << "// pragma clock_period " << nl.clock_period() << '\n';
  for (const auto& b : nl.blockages()) {
    os << "// pragma blockage " << b.x0 << ' ' << b.y0 << ' ' << b.x1 << ' '
       << b.y1 << '\n';
  }

  const bool has_ffs = nl.flip_flop_count() > 0;
  os << "module " << nl.name() << " (";
  bool first = true;
  std::vector<std::string> seen_ports;
  const auto emit_port = [&](const std::string& name) {
    if (std::find(seen_ports.begin(), seen_ports.end(), name) !=
        seen_ports.end()) {
      return;  // a net can be both an unused PI and a marked PO
    }
    seen_ports.push_back(name);
    if (!first) os << ", ";
    os << name;
    first = false;
  };
  if (has_ffs) emit_port("clk");
  for (const int pi : nl.primary_inputs()) emit_port(net_name(pi));
  for (const int po : nl.primary_outputs()) emit_port(net_name(po));
  os << ");\n";

  if (has_ffs) os << "  input clk;\n";
  for (const int pi : nl.primary_inputs()) {
    os << "  input " << net_name(pi) << ";\n";
  }
  for (const int po : nl.primary_outputs()) {
    os << "  output " << net_name(po) << ";\n";
  }
  for (int n = 0; n < nl.net_count(); ++n) {
    const bool is_pi = std::find(nl.primary_inputs().begin(),
                                 nl.primary_inputs().end(),
                                 n) != nl.primary_inputs().end();
    if (!is_pi && !nl.net(n).is_primary_output) {
      os << "  wire " << net_name(n) << ";\n";
    }
  }
  os << '\n';

  for (int c = 0; c < nl.cell_count(); ++c) {
    const auto& cell = nl.cell(c);
    const auto& type = nl.cell_type(c);
    os << "  " << type.name << " u" << c << " (";
    for (std::size_t p = 0; p < cell.fanin_nets.size(); ++p) {
      os << '.' << input_pin_name(type, static_cast<int>(p)) << '('
         << net_name(cell.fanin_nets[p]) << "), ";
    }
    if (type.func == Func::kDff) os << ".CK(clk), ";
    os << '.' << output_pin_name(type) << '(' << net_name(cell.fanout_net)
       << "));";
    os << " // pragma cell " << cell.activity << ' ' << cell.cluster << '\n';
  }
  os << "endmodule\n";
}

std::string to_verilog(const Netlist& nl) {
  std::ostringstream os;
  write_verilog(nl, os);
  return os.str();
}

namespace {

/// Splits ".PIN(net)" port hookups out of an instance body.
std::vector<std::pair<std::string, std::string>> parse_ports(
    const std::string& body, int line_no) {
  std::vector<std::pair<std::string, std::string>> ports;
  std::size_t pos = 0;
  while ((pos = body.find('.', pos)) != std::string::npos) {
    const auto open = body.find('(', pos);
    const auto close = body.find(')', open);
    if (open == std::string::npos || close == std::string::npos) {
      fail(line_no, "malformed port hookup");
    }
    ports.emplace_back(body.substr(pos + 1, open - pos - 1),
                       body.substr(open + 1, close - open - 1));
    pos = close + 1;
  }
  return ports;
}

int parse_net_index(const std::string& name, int line_no) {
  if (name.size() < 2 || name[0] != 'n') fail(line_no, "bad net name " + name);
  return std::stoi(name.substr(1));
}

}  // namespace

Netlist read_verilog(std::istream& is) {
  std::string node_name = "45nm";
  double feature_nm = 45.0;
  double clock_period = 1.0;
  std::string module_name = "design";
  std::vector<Blockage> blockages;
  std::vector<int> inputs;
  std::vector<int> outputs;
  int max_net = -1;

  struct Instance {
    int id = 0;
    std::string type_name;
    std::vector<std::pair<std::string, std::string>> ports;
    double activity = 0.1;
    int cluster = 0;
    int line = 0;
  };
  std::vector<Instance> instances;

  std::string line;
  int line_no = 0;
  while (std::getline(is, line)) {
    ++line_no;
    std::istringstream ls{line};
    std::string tok;
    ls >> tok;
    if (tok.empty()) continue;
    if (tok == "//") {
      std::string kind;
      ls >> kind;
      if (kind != "pragma") continue;
      std::string what;
      ls >> what;
      if (what == "node") {
        ls >> node_name >> feature_nm;
      } else if (what == "clock_period") {
        ls >> clock_period;
      } else if (what == "blockage") {
        Blockage b;
        ls >> b.x0 >> b.y0 >> b.x1 >> b.y1;
        blockages.push_back(b);
      }
      continue;
    }
    if (tok == "module") {
      ls >> module_name;
      const auto paren = module_name.find('(');
      if (paren != std::string::npos) module_name.resize(paren);
      continue;
    }
    if (tok == "input" || tok == "output" || tok == "wire") {
      std::string rest;
      std::getline(ls, rest);
      std::istringstream names{rest};
      std::string name;
      while (std::getline(names, name, ',')) {
        // Trim whitespace and the trailing ';'.
        name.erase(std::remove_if(name.begin(), name.end(),
                                  [](char ch) {
                                    return ch == ' ' || ch == ';' ||
                                           ch == '\t';
                                  }),
                   name.end());
        if (name.empty() || name == "clk") continue;
        const int idx = parse_net_index(name, line_no);
        max_net = std::max(max_net, idx);
        if (tok == "input") inputs.push_back(idx);
        if (tok == "output") outputs.push_back(idx);
      }
      continue;
    }
    if (tok == "endmodule") break;
    // Otherwise: an instance line "TYPE uID (...); // pragma cell a c".
    Instance inst;
    inst.type_name = tok;
    inst.line = line_no;
    std::string inst_name;
    ls >> inst_name;
    if (inst_name.size() < 2 || inst_name[0] != 'u') {
      fail(line_no, "bad instance name " + inst_name);
    }
    inst.id = std::stoi(inst_name.substr(1));
    std::string rest;
    std::getline(ls, rest);
    const auto pragma = rest.find("// pragma cell");
    if (pragma != std::string::npos) {
      std::istringstream ps{rest.substr(pragma + 14)};
      ps >> inst.activity >> inst.cluster;
      rest.resize(pragma);
    }
    inst.ports = parse_ports(rest, line_no);
    for (const auto& [pin, net] : inst.ports) {
      if (net != "clk") {
        max_net = std::max(max_net, parse_net_index(net, line_no));
      }
    }
    instances.push_back(std::move(inst));
  }

  // Rebuild: instances must come back in id order for cell ids to match.
  std::sort(instances.begin(), instances.end(),
            [](const Instance& a, const Instance& b) { return a.id < b.id; });
  for (std::size_t i = 0; i < instances.size(); ++i) {
    if (instances[i].id != static_cast<int>(i)) {
      fail(instances[i].line, "non-contiguous instance ids");
    }
  }

  Netlist nl{module_name, CellLibrary::make({node_name, feature_nm}),
             clock_period};
  for (int n = 0; n <= max_net; ++n) nl.add_net();
  for (const auto& b : blockages) nl.add_blockage(b);

  const auto& lib = nl.library();
  const auto type_index = [&](const std::string& name, int line_of) {
    for (int t = 0; t < lib.size(); ++t) {
      if (lib.cell(t).name == name) return t;
    }
    fail(line_of, "unknown cell type " + name);
  };

  for (const auto& inst : instances) {
    const int type = type_index(inst.type_name, inst.line);
    const auto& cell_type = lib.cell(type);
    const int n_inputs = func_input_count(cell_type.func);
    std::vector<int> fanins(static_cast<std::size_t>(n_inputs), -1);
    int out_net = -1;
    for (const auto& [pin, net] : inst.ports) {
      if (pin == "CK") continue;
      const int idx = parse_net_index(net, inst.line);
      if (pin == std::string(output_pin_name(cell_type))) {
        out_net = idx;
        continue;
      }
      for (int p = 0; p < n_inputs; ++p) {
        if (pin == std::string(input_pin_name(cell_type, p))) {
          fanins[static_cast<std::size_t>(p)] = idx;
        }
      }
    }
    if (out_net < 0) fail(inst.line, "instance missing output pin");
    for (const int f : fanins) {
      if (f < 0) fail(inst.line, "instance missing input pin");
    }
    const int cell = nl.add_cell(type, fanins, out_net);
    nl.set_cell_activity(cell, inst.activity);
    nl.set_cell_cluster(cell, inst.cluster);
  }

  for (const int pi : inputs) nl.mark_primary_input(pi);
  for (const int po : outputs) nl.mark_primary_output(po);
  nl.validate();
  return nl;
}

Netlist read_verilog_string(const std::string& text) {
  std::istringstream is{text};
  return read_verilog(is);
}

}  // namespace vpr::netlist
