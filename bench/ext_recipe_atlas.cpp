// Extension experiment: the single-recipe effect atlas. Runs every one of
// the 40 recipes in isolation on four contrasting designs and reports the
// power / TNS delta against the baseline flow, plus the estimated
// commercial tool-hours of one iteration. This is the ground truth the
// recommender has to discover — which knobs matter where — and doubles as
// a regression net for the flow's recipe couplings.

#include <iostream>

#include "bench_common.h"
#include "flow/runtime_model.h"
#include "util/table.h"

int main() {
  using namespace vpr;
  std::cout << "EXT: Single-recipe effect atlas (QoR deltas vs baseline "
               "flow)\n\n";

  const std::vector<int> design_ids = {4, 6, 10, 16};
  struct DesignCtx {
    std::unique_ptr<flow::Design> design;
    std::unique_ptr<flow::Flow> flow;
    flow::Qor baseline;
  };
  std::vector<DesignCtx> ctx;
  for (const int id : design_ids) {
    auto traits = netlist::suite_design(id);
    if (vpr::bench::fast_mode()) {
      traits.target_cells = std::min(traits.target_cells, 1200);
    }
    DesignCtx c;
    c.design = std::make_unique<flow::Design>(traits);
    c.flow = std::make_unique<flow::Flow>(*c.design);
    c.baseline = c.flow->run(flow::RecipeSet{}).qor;
    ctx.push_back(std::move(c));
  }
  std::cout << "Baselines:";
  for (std::size_t i = 0; i < ctx.size(); ++i) {
    std::cout << "  D" << design_ids[i] << ": "
              << util::fmt(ctx[i].baseline.power, 2) << " mW / "
              << util::fmt_adaptive(ctx[i].baseline.tns) << " ns";
  }
  std::cout << "\n\n";

  std::vector<std::string> header{"Recipe"};
  for (const int id : design_ids) {
    const std::string design = std::to_string(id);
    header.push_back("D" + design + " dPwr%");
    header.push_back("D" + design + " dTNS");
  }
  header.push_back("Est. hours (1M cells)");
  util::TablePrinter table{header};

  netlist::DesignTraits million;
  million.target_cells = 1000000;
  for (const auto& recipe : flow::recipe_catalog()) {
    std::vector<std::string> row{recipe.name};
    flow::RecipeSet rs;
    rs.set(recipe.id);
    for (auto& c : ctx) {
      const auto qor = c.flow->run(rs).qor;
      row.push_back(
          util::fmt(100.0 * (qor.power - c.baseline.power) / c.baseline.power,
                    1));
      row.push_back(util::fmt(qor.tns - c.baseline.tns, 2));
    }
    flow::FlowKnobs knobs;
    rs.apply(knobs);
    row.push_back(util::fmt(
        flow::RuntimeModel::estimate(million, knobs).total_hours, 1));
    table.add_row(std::move(row));
  }
  table.print(std::cout);

  std::cout << "\nReading: negative dPwr% = the recipe saves power on that "
               "design; negative dTNS = it improves timing. Design-to-design "
               "sign flips are exactly the conditionality InsightAlign "
               "learns from insights.\n";
  return 0;
}
