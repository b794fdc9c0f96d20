#include "align/online.h"

#include <algorithm>
#include <cmath>
#include <stdexcept>

#include "align/beam.h"
#include "align/losses.h"
#include "flow/eval.h"
#include "nn/optim.h"
#include "util/stats.h"

namespace vpr::align {

OnlineTuner::OnlineTuner(RecipeModel& model, const flow::Design& design,
                         const DesignData& design_data, OnlineConfig config)
    : model_(model),
      design_(design),
      design_data_(design_data),
      config_(config),
      insight_(design_data.insight()) {
  if (config_.iterations < 1 || config_.proposals_per_iteration < 1) {
    throw std::invalid_argument("OnlineConfig: bad counts");
  }
  if (config_.blind_insights) {
    std::fill(insight_.begin(), insight_.end() - 1, 0.0);
  }
}

flow::RecipeSet OnlineTuner::sample_policy(util::Rng& rng) const {
  // One KV-cached decode lane: each step reuses the prefix's cache instead
  // of re-running the full forward (probabilities are bitwise identical,
  // so the rng trajectory is unchanged).
  DecodeSession session = model_.decode(insight_, 1);
  std::vector<int> bits;
  bits.reserve(static_cast<std::size_t>(flow::kNumRecipes));
  for (int t = 0; t < flow::kNumRecipes; ++t) {
    const double p = session.step(0, bits.empty() ? 0 : bits.back());
    bits.push_back(rng.bernoulli(p) ? 1 : 0);
  }
  return flow::RecipeSet::from_bits(bits);
}

std::vector<flow::RecipeSet> OnlineTuner::propose(util::Rng& rng) const {
  std::vector<flow::RecipeSet> proposals;
  const auto seen = [&](const flow::RecipeSet& rs) {
    const auto same = [&](const DataPoint& p) { return p.recipes == rs; };
    if (std::any_of(history_.begin(), history_.end(), same)) return true;
    return std::any_of(proposals.begin(), proposals.end(),
                       [&](const flow::RecipeSet& q) { return q == rs; });
  };
  // Beam heads first (exploitation) ...
  for (const auto& cand :
       beam_search(model_, insight_, config_.beam_width)) {
    if (static_cast<int>(proposals.size()) >=
        config_.proposals_per_iteration) {
      break;
    }
    if (!seen(cand.recipes)) proposals.push_back(cand.recipes);
  }
  // ... then policy samples for novelty (exploration).
  int guard = 0;
  while (static_cast<int>(proposals.size()) <
             config_.proposals_per_iteration &&
         guard < 200) {
    ++guard;
    const auto rs = sample_policy(rng);
    if (!seen(rs)) proposals.push_back(rs);
  }
  // Last resort: random flips on the best-known proposal.
  while (static_cast<int>(proposals.size()) <
         config_.proposals_per_iteration) {
    flow::RecipeSet rs = proposals.empty() ? flow::RecipeSet{}
                                           : proposals.front();
    rs.set(rng.uniform_int(0, flow::kNumRecipes - 1),
           rng.bernoulli(0.5));
    if (!seen(rs)) proposals.push_back(rs);
  }
  return proposals;
}

OnlineResult OnlineTuner::run() {
  util::Rng rng{config_.seed};
  nn::Adam optimizer{model_.parameters(), config_.lr};
  flow::FlowEval& eval = flow::FlowEval::shared();
  OnlineResult result;

  for (int iter = 0; iter < config_.iterations; ++iter) {
    OnlineIteration record;

    // ----- Propose and evaluate -----
    const auto proposals = propose(rng);
    std::vector<flow::Qor> qors(proposals.size());
    eval.eval_many(design_, proposals,
                   [&](std::size_t i, const flow::Qor& q) { qors[i] = q; });
    for (std::size_t i = 0; i < proposals.size(); ++i) {
      const flow::Qor& q = qors[i];
      const DataPoint p{proposals[i], q.power, q.tns,
                        design_data_.score_of(q.power, q.tns)};
      record.evaluated.push_back(p);
      history_.push_back(p);
    }

    // ----- Advantages + frozen old log-probs for PPO -----
    std::vector<double> hist_scores;
    hist_scores.reserve(history_.size());
    for (const auto& p : history_) hist_scores.push_back(p.score);
    const util::ZScore z{hist_scores};
    struct PpoSample {
      std::vector<int> bits;
      double old_lp;
      double advantage;
    };
    std::vector<PpoSample> ppo_samples;
    for (const auto& p : record.evaluated) {
      const auto bits = p.recipes.to_bits();
      ppo_samples.push_back(
          {bits, model_.log_prob(insight_, bits), z(p.score)});
    }

    // ----- Update: MDPO over history pairs + PPO on new samples -----
    double loss_sum = 0.0;
    int loss_count = 0;
    for (int update = 0; update < config_.updates_per_iteration; ++update) {
      optimizer.zero_grad();
      int in_batch = 0;
      const auto step_if_full = [&](bool force) {
        if (in_batch >= 8 || (force && in_batch > 0)) {
          optimizer.clip_grad_norm(config_.grad_clip);
          optimizer.step();
          optimizer.zero_grad();
          in_batch = 0;
        }
      };
      // Preference pairs from the accumulated history.
      int made = 0;
      int guard = 0;
      while (made < config_.dpo_pairs_per_iteration && guard < 2000 &&
             history_.size() >= 2) {
        ++guard;
        const std::size_t i = rng.index(history_.size());
        const std::size_t j = rng.index(history_.size());
        if (i == j) continue;
        if (std::fabs(history_[i].score - history_[j].score) < 0.05) continue;
        nn::Tensor loss = mdpo_pair_loss(
            model_, insight_, history_[i].recipes.to_bits(),
            history_[j].recipes.to_bits(), history_[i].score,
            history_[j].score, config_.lambda);
        loss_sum += loss.item();
        ++loss_count;
        nn::Tensor scaled = nn::scale(loss, 1.0 / 8.0);
        scaled.backward();
        ++in_batch;
        step_if_full(false);
        ++made;
      }
      // PPO on this iteration's freshly scored samples.
      for (const auto& s : ppo_samples) {
        nn::Tensor loss = nn::scale(
            ppo_loss(model_, insight_, s.bits, s.old_lp, s.advantage,
                     config_.ppo_clip),
            config_.ppo_weight);
        loss_sum += loss.item();
        ++loss_count;
        nn::Tensor scaled = nn::scale(loss, 1.0 / 8.0);
        scaled.backward();
        ++in_batch;
        step_if_full(false);
      }
      step_if_full(true);
    }
    record.mean_loss =
        loss_count > 0 ? loss_sum / static_cast<double>(loss_count) : 0.0;

    // ----- Trajectory bookkeeping (Fig. 6 metrics) -----
    std::vector<const DataPoint*> sorted;
    sorted.reserve(history_.size());
    for (const auto& p : history_) sorted.push_back(&p);
    std::sort(sorted.begin(), sorted.end(),
              [](const DataPoint* a, const DataPoint* b) {
                return a->score > b->score;
              });
    record.best_score_so_far = sorted.front()->score;
    record.best_power_so_far = sorted.front()->power;
    record.best_tns_so_far = sorted.front()->tns;
    const std::size_t top_n = std::min<std::size_t>(5, sorted.size());
    double top_sum = 0.0;
    for (std::size_t i = 0; i < top_n; ++i) top_sum += sorted[i]->score;
    record.top5_mean_score_so_far = top_sum / static_cast<double>(top_n);

    if (config_.on_iteration) {
      OnlineSnapshot snapshot;
      snapshot.iteration = iter + 1;
      snapshot.best_score_so_far = record.best_score_so_far;
      snapshot.mean_loss = record.mean_loss;
      snapshot.state = model_.state();
      config_.on_iteration(snapshot);
    }

    result.iterations.push_back(std::move(record));
  }
  return result;
}

}  // namespace vpr::align
