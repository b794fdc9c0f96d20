#include "inputs.h"

#include <algorithm>

#include "common.h"
#include "flow/eval.h"
#include "netlist/suite.h"
#include "util/rng.h"

namespace perfbench {

std::uint64_t InputGen::stream(std::uint64_t salt) const {
  return vpr::util::hash_combine(seed_, salt);
}

vpr::netlist::DesignTraits InputGen::reseeded(int k) const {
  vpr::netlist::DesignTraits t = vpr::netlist::suite_design(k);
  t.seed = vpr::util::hash_combine(stream(0x5eedULL), t.seed);
  return t;
}

vpr::netlist::DesignTraits InputGen::variant(int k, int index) const {
  vpr::netlist::DesignTraits t = vpr::netlist::suite_design(k);
  vpr::util::Rng rng{vpr::util::hash_combine(
      stream(0x7a41a47ULL), (static_cast<std::uint64_t>(k) << 32) |
                                static_cast<std::uint32_t>(index))};
  const auto scale = [&](double& v, double hi) {
    v = std::min(hi, v * rng.uniform(0.95, 1.05));
  };
  t.name = t.name + "v" + std::to_string(index);
  t.seed = rng();
  t.target_cells = static_cast<int>(t.target_cells * rng.uniform(0.95, 1.05));
  scale(t.clock_period_ns, 1e9);
  scale(t.ff_ratio, 0.9);
  scale(t.high_fanout_ratio, 0.5);
  scale(t.activity_mean, 0.9);
  scale(t.lvt_ratio, 1.0);
  scale(t.weak_drive_ratio, 1.0);
  scale(t.congestion_propensity, 1.0);
  scale(t.hold_sensitivity, 1.0);
  scale(t.skew_sensitivity, 1.0);
  scale(t.macro_ratio, 0.5);
  return t;
}

bool RepeatLedger::add(std::uint64_t key) {
  ++total_;
  return seen_.insert(key).second;
}

double RepeatLedger::repeat_share() const {
  return total_ == 0 ? 0.0
                     : static_cast<double>(repeats()) /
                           static_cast<double>(total_);
}

void require_distinct_designs(const std::vector<const vpr::flow::Design*>& ds,
                              Result& out) {
  RepeatLedger ledger;
  for (const auto* d : ds) {
    if (!ledger.add(vpr::flow::FlowEval::fingerprint(*d))) {
      out.fail("design " + d->name() + " repeats an earlier fingerprint");
    }
  }
}

void require_distinct_recipe_sets(const vpr::align::OfflineDataset& dataset,
                                  Result& out) {
  for (const auto& d : dataset.designs()) {
    RepeatLedger ledger;
    for (const auto& p : d.points) {
      if (!ledger.add(p.recipes.to_u64())) {
        out.fail("design " + d.name + " archives recipe set " +
                 p.recipes.to_string() + " twice");
      }
    }
  }
}

}  // namespace perfbench
