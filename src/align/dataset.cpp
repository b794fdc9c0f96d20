#include "align/dataset.h"

#include <algorithm>
#include <cstdint>
#include <stdexcept>

#include "flow/eval.h"
#include "obs/trace.h"
#include "util/rng.h"
#include "util/thread_pool.h"

namespace vpr::align {

void DesignData::finalize(const QorWeights& weights) {
  if (points.empty()) {
    throw std::logic_error("DesignData::finalize: no points");
  }
  weights_ = weights;
  std::vector<double> powers;
  std::vector<double> tnss;
  powers.reserve(points.size());
  tnss.reserve(points.size());
  for (const auto& p : points) {
    powers.push_back(p.power);
    tnss.push_back(p.tns);
  }
  power_z_ = util::ZScore{powers};
  tns_z_ = util::ZScore{tnss};
  finalized_ = true;
  for (auto& p : points) p.score = score_of(p.power, p.tns);
}

double DesignData::score_of(double power, double tns) const {
  if (!finalized_) {
    throw std::logic_error("DesignData::score_of before finalize");
  }
  // Eq. 4 with g = -1 for both metrics (both minimized): higher is better.
  return -weights_.power * power_z_(power) - weights_.tns * tns_z_(tns);
}

const DataPoint& DesignData::best_known() const {
  if (points.empty()) throw std::logic_error("best_known: no points");
  return *std::max_element(points.begin(), points.end(),
                           [](const DataPoint& a, const DataPoint& b) {
                             return a.score < b.score;
                           });
}

flow::RecipeSet random_recipe_set(util::Rng& rng, int min_recipes,
                                  int max_recipes) {
  if (min_recipes < 1 || max_recipes < min_recipes ||
      max_recipes > flow::kNumRecipes) {
    throw std::invalid_argument("random_recipe_set: bad bounds");
  }
  flow::RecipeSet rs;
  const int target = rng.uniform_int(min_recipes, max_recipes);
  while (rs.count() < target) {
    rs.set(rng.uniform_int(0, flow::kNumRecipes - 1));
  }
  return rs;
}

OfflineDataset OfflineDataset::build(
    const std::vector<const flow::Design*>& designs,
    const DatasetConfig& config) {
  if (designs.empty()) {
    throw std::invalid_argument("OfflineDataset::build: no designs");
  }
  if (config.points_per_design < 2) {
    throw std::invalid_argument("OfflineDataset::build: need >= 2 points");
  }
  OfflineDataset dataset;
  dataset.designs_.resize(designs.size());

  // One pool task per design: its probe, its random batch and its serial
  // expert loop. Each design draws from its own seeded stream and writes
  // only its own slot, so the archive does not depend on the schedule;
  // the flows nested in a task take the pool's idle workers. The span books
  // the caller's wait for the last design to `flow`, as flow.eval.many does.
  flow::FlowEval& eval = flow::FlowEval::shared();
  VPR_TRACE_SPAN(
      "flow.archive", "flow",
      obs::TraceArgs{{"designs", static_cast<std::int64_t>(designs.size())}});
  util::ThreadPool::shared().parallel_for(designs.size(), [&](std::size_t d) {
    const flow::Design& design = *designs[d];
    DesignData& data = dataset.designs_[d];
    data.name = design.name();

    // Probing iteration: default recipe set, insights extracted from its
    // trajectory (paper's "offline alignment" insight-probing phase). The
    // pinned result survives the LRU eviction other tasks may cause.
    data.insight_vec = insight::analyze(design, *eval.probe_pinned(design));

    // Pre-draw the random recipe sets (deterministic), de-duplicated.
    // Expert-tuned entries (below) fill the remainder of the budget.
    const int n_expert =
        std::clamp(config.expert_points, 0, config.points_per_design - 2);
    const int n_random = config.points_per_design - n_expert;
    util::Rng rng{util::hash_combine(config.seed, d)};
    std::vector<flow::RecipeSet> sets;
    sets.reserve(static_cast<std::size_t>(n_random));
    std::vector<std::uint64_t> seen;
    while (static_cast<int>(sets.size()) < n_random) {
      const auto rs =
          random_recipe_set(rng, config.min_recipes, config.max_recipes);
      if (std::find(seen.begin(), seen.end(), rs.to_u64()) != seen.end()) {
        continue;
      }
      seen.push_back(rs.to_u64());
      sets.push_back(rs);
    }

    // Parallel memoized flow runs into pre-sized slots.
    data.points.resize(sets.size());
    eval.eval_many(
        design, sets,
        [&](std::size_t i, const flow::Qor& q) {
          data.points[i] = {sets[i], q.power, q.tns, 0.0};
        });

    // Expert-tuned archive entries: a greedy bit-flip refinement from the
    // best random point, standing in for the paper's "known-good manually
    // tuned expert design recipes". Uses a provisional score (the final
    // z-stats include these points themselves).
    if (n_expert > 0) {
      util::ZScore pz, tz;
      {
        std::vector<double> powers, tnss;
        for (const auto& p : data.points) {
          powers.push_back(p.power);
          tnss.push_back(p.tns);
        }
        pz = util::ZScore{powers};
        tz = util::ZScore{tnss};
      }
      const auto provisional = [&](const DataPoint& p) {
        return -config.weights.power * pz(p.power) -
               config.weights.tns * tz(p.tns);
      };
      const DataPoint* best = &data.points.front();
      for (const auto& p : data.points) {
        if (provisional(p) > provisional(*best)) best = &p;
      }
      flow::RecipeSet current = best->recipes;
      double current_score = provisional(*best);
      int added = 0;
      int attempts = 0;
      while (added < n_expert && attempts < 30 * n_expert) {
        ++attempts;
        flow::RecipeSet candidate = current;
        const int flips = rng.bernoulli(0.3) ? 2 : 1;
        for (int f = 0; f < flips; ++f) {
          const int bit = rng.uniform_int(0, flow::kNumRecipes - 1);
          candidate.set(bit, !candidate.test(bit));
        }
        if (std::find(seen.begin(), seen.end(), candidate.to_u64()) !=
            seen.end()) {
          continue;
        }
        ++added;
        seen.push_back(candidate.to_u64());
        const flow::Qor q = eval.eval(design, candidate);
        const DataPoint p{candidate, q.power, q.tns, 0.0};
        data.points.push_back(p);
        if (provisional(p) > current_score) {
          current = candidate;
          current_score = provisional(p);
        }
      }
    }
    data.finalize(config.weights);
  });
  return dataset;
}

OfflineDataset OfflineDataset::from_designs(std::vector<DesignData> designs,
                                            const QorWeights& weights) {
  OfflineDataset dataset;
  dataset.designs_ = std::move(designs);
  for (auto& d : dataset.designs_) d.finalize(weights);
  return dataset;
}

int OfflineDataset::total_points() const {
  int total = 0;
  for (const auto& d : designs_) total += static_cast<int>(d.points.size());
  return total;
}

}  // namespace vpr::align
