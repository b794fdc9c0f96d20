#pragma once
// The one seeded source of workload inputs. Everything a workload feeds the
// program (netlist seeds, design variants, serving schedules) derives from
// the run's --seed through here, and the ledger below proves the inputs are
// distinct and measures how many of them repeat: warm-state machinery only
// pays on repeats, so every claim about it has to name that share.

#include <cstdint>
#include <memory>
#include <string>
#include <unordered_set>
#include <vector>

#include "align/dataset.h"
#include "flow/flow.h"
#include "netlist/generator.h"

namespace perfbench {

struct Result;

class InputGen {
 public:
  explicit InputGen(std::uint64_t seed) : seed_(seed) {}

  /// Independent 64-bit stream for one purpose (schedule, sample, ...).
  [[nodiscard]] std::uint64_t stream(std::uint64_t salt) const;

  /// Suite design `k` (1-based) with its traits unchanged but a netlist
  /// seed of this run's own: same cell count and character, new netlist.
  [[nodiscard]] vpr::netlist::DesignTraits reseeded(int k) const;

  /// Variant `index` of suite design `k` (1-based): a fresh netlist seed,
  /// every continuous trait scaled by a factor in [0.95, 1.05] and its own
  /// name, so FlowEval::fingerprint differs from the suite design and from
  /// every other variant.
  [[nodiscard]] vpr::netlist::DesignTraits variant(int k, int index) const;

 private:
  std::uint64_t seed_;
};

/// Counts input keys: `add` returns false for a key seen before.
class RepeatLedger {
 public:
  bool add(std::uint64_t key);
  [[nodiscard]] std::uint64_t repeats() const {
    return total_ - seen_.size();
  }
  /// Share of inputs that repeat an earlier one (0 when empty).
  [[nodiscard]] double repeat_share() const;

 private:
  std::unordered_set<std::uint64_t> seen_;
  std::uint64_t total_ = 0;
};

/// Fails the run unless every design has a distinct FlowEval fingerprint.
void require_distinct_designs(const std::vector<const vpr::flow::Design*>& ds,
                              Result& out);

/// Fails the run unless each design's archived recipe sets are distinct.
void require_distinct_recipe_sets(const vpr::align::OfflineDataset& dataset,
                                  Result& out);

}  // namespace perfbench
