#include "align/trainer.h"

#include <algorithm>
#include <atomic>
#include <cmath>
#include <memory>
#include <stdexcept>

#include "align/losses.h"
#include "nn/optim.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "util/rng.h"
#include "util/thread_pool.h"

namespace vpr::align {

namespace {

/// Insight with optional blinding (ablation keeps only the bias term).
std::vector<double> effective_insight(const DesignData& d, bool blind) {
  std::vector<double> iv = d.insight();
  if (blind) {
    std::fill(iv.begin(), iv.end() - 1, 0.0);
  }
  return iv;
}

struct Pair {
  std::size_t design = 0;
  std::size_t winner = 0;
  std::size_t loser = 0;
  double gap = 0.0;  // score_winner - score_loser, > 0
};

/// Samples preference pairs with a minimum score gap.
std::vector<Pair> sample_pairs(const OfflineDataset& dataset,
                               std::span<const std::size_t> design_indices,
                               int per_design, double min_gap,
                               util::Rng& rng) {
  std::vector<Pair> pairs;
  pairs.reserve(design_indices.size() * static_cast<std::size_t>(per_design));
  for (const std::size_t d : design_indices) {
    const auto& points = dataset.design(d).points;
    if (points.size() < 2) continue;
    int produced = 0;
    int attempts = 0;
    const int max_attempts = per_design * 20;
    while (produced < per_design && attempts < max_attempts) {
      ++attempts;
      const std::size_t i = rng.index(points.size());
      const std::size_t j = rng.index(points.size());
      if (i == j) continue;
      const double gap = points[i].score - points[j].score;
      if (std::fabs(gap) < min_gap) continue;
      if (gap > 0.0) {
        pairs.push_back({d, i, j, gap});
      } else {
        pairs.push_back({d, j, i, -gap});
      }
      ++produced;
    }
  }
  rng.shuffle(pairs);
  return pairs;
}

}  // namespace

AlignmentTrainer::AlignmentTrainer(RecipeModel& model, TrainConfig config)
    : model_(model), config_(config) {
  if (config_.epochs < 1 || config_.pairs_per_design < 1 ||
      config_.minibatch < 1) {
    throw std::invalid_argument("TrainConfig: bad counts");
  }
}

TrainMetrics AlignmentTrainer::train(
    const OfflineDataset& dataset,
    std::span<const std::size_t> train_designs) {
  if (train_designs.empty()) {
    throw std::invalid_argument("train: empty design split");
  }
  util::Rng rng{config_.seed};
  nn::Adam optimizer{model_.parameters(), config_.lr};
  TrainMetrics metrics;

  // Cache effective insights per design.
  std::vector<std::vector<double>> insights(dataset.size());
  for (const std::size_t d : train_designs) {
    insights[d] = effective_insight(dataset.design(d), config_.blind_insights);
  }

  // One preference pair evaluated in isolation on `model`, a replica
  // holding the master's parameters: the gradient of the 1/minibatch-scaled
  // loss, the loss value, and the ranking verdict. Each pair starts from
  // zeroed gradients and the minibatch sums them in pair order below, which
  // fixes the floating-point summation order whichever replica and thread
  // evaluated the pair.
  struct PairEval {
    std::vector<double> grad;
    double loss = 0.0;
    bool correct = false;
  };
  const auto eval_pair = [&](RecipeModel& model,
                             const Pair& pair) -> PairEval {
    const auto& data = dataset.design(pair.design);
    const auto& iv = insights[pair.design];
    const auto bits_w = data.points[pair.winner].recipes.to_bits();
    const auto bits_l = data.points[pair.loser].recipes.to_bits();
    PairLossTerms terms;
    switch (config_.loss) {
      case LossKind::kMarginDpo:
        terms = mdpo_pair_loss_terms(model, iv, bits_w, bits_l,
                                     data.points[pair.winner].score,
                                     data.points[pair.loser].score,
                                     config_.lambda);
        break;
      case LossKind::kPlainDpo:
        terms = dpo_pair_loss_terms(model, iv, bits_w, bits_l, config_.beta);
        break;
      case LossKind::kSupervisedNll:
        // Supervised ablation: fit the winner only.
        terms = nll_loss_terms(model, iv, bits_w);
        break;
    }
    model.zero_grad();
    nn::Tensor scaled =
        nn::scale(terms.loss, 1.0 / static_cast<double>(config_.minibatch));
    scaled.backward();
    // Ranking accuracy before the update: the DPO loss graphs already hold
    // both likelihoods; NLL only has the winner's, so the loser's comes
    // from the tape-free fast path.
    const double lp_w = terms.lp_i.item();
    const double lp_l = terms.lp_j.defined() ? terms.lp_j.item()
                                             : model.log_prob(iv, bits_l);
    return {model.gradients(), terms.loss.item(), lp_w > lp_l};
  };

  const auto minibatch = static_cast<std::size_t>(config_.minibatch);
  static obs::Counter& minibatch_counter =
      obs::MetricsRegistry::instance().counter(
          "train.minibatches", "MDPO minibatches processed");
  // The pairs of a minibatch run on the shared pool, one replica model per
  // participant. Replicas are shells (no rng draws) refreshed from the
  // master's parameters at every step; the master alone reduces and steps.
  util::ThreadPool& pool = util::ThreadPool::shared();
  std::vector<std::unique_ptr<RecipeModel>> replicas(
      std::min<std::size_t>(pool.workers() + 1, minibatch));
  {
    nn::DeferParameterInit defer_init;
    util::Rng unused{0};
    for (auto& replica : replicas) {
      replica = std::make_unique<RecipeModel>(model_.config(), unused);
    }
  }
  std::vector<PairEval> evals;
  for (int epoch = 0; epoch < config_.epochs; ++epoch) {
    VPR_TRACE_SPAN("train.epoch", "train",
                   obs::TraceArgs{{"epoch", epoch}});
    const auto pairs =
        sample_pairs(dataset, train_designs, config_.pairs_per_design,
                     config_.min_score_gap, rng);
    if (pairs.empty()) {
      throw std::logic_error("train: no usable preference pairs");
    }
    double loss_sum = 0.0;
    int correct = 0;
    for (std::size_t start = 0; start < pairs.size(); start += minibatch) {
      const std::size_t count = std::min(minibatch, pairs.size() - start);
      minibatch_counter.inc();
      evals.clear();
      evals.resize(count);
      {
        VPR_TRACE_SPAN("train.minibatch", "train",
                       obs::TraceArgs{{"pairs", count}});
        const std::vector<double> state = model_.state();
        std::atomic<std::size_t> next{0};
        pool.parallel_for(
            std::min(replicas.size(), count), [&](std::size_t r) {
              // Books pool workers' pair work to training; only
              // train.minibatch's `pairs` arg counts the minibatch.
              obs::TraceSpan span{"train.replica", "train"};
              RecipeModel& replica = *replicas[r];
              replica.load_state(state);
              std::size_t done = 0;
              for (std::size_t i = next++; i < count; i = next++, ++done) {
                evals[i] = eval_pair(replica, pairs[start + i]);
              }
              span.arg("pairs", done);
            });
      }
      {
        VPR_TRACE_SPAN("train.grad_reduce", "train",
                       obs::TraceArgs{{"pairs", count}});
        // Deterministic reduction: per-pair gradients summed in pair order.
        model_.zero_grad();
        for (const auto& eval : evals) {
          model_.accumulate_gradients(eval.grad);
          loss_sum += eval.loss;
          if (eval.correct) ++correct;
        }
        optimizer.clip_grad_norm(config_.grad_clip);
        optimizer.step();
      }
      ++metrics.optimizer_steps;
    }
    metrics.epoch_loss.push_back(loss_sum / static_cast<double>(pairs.size()));
    metrics.epoch_accuracy.push_back(static_cast<double>(correct) /
                                     static_cast<double>(pairs.size()));
  }
  return metrics;
}

double AlignmentTrainer::evaluate_pair_accuracy(
    const OfflineDataset& dataset, std::span<const std::size_t> designs,
    int pairs_per_design) const {
  util::Rng rng{util::hash_combine(config_.seed, 0xe7a1ULL)};
  const auto pairs = sample_pairs(dataset, designs, pairs_per_design,
                                  config_.min_score_gap, rng);
  if (pairs.empty()) return 0.0;
  // Effective insight once per design, not once per sampled pair.
  std::vector<std::vector<double>> insights(dataset.size());
  for (const std::size_t d : designs) {
    insights[d] = effective_insight(dataset.design(d), config_.blind_insights);
  }
  int correct = 0;
  for (const auto& pair : pairs) {
    const auto& data = dataset.design(pair.design);
    const auto& iv = insights[pair.design];
    const double lp_w =
        model_.log_prob(iv, data.points[pair.winner].recipes.to_bits());
    const double lp_l =
        model_.log_prob(iv, data.points[pair.loser].recipes.to_bits());
    if (lp_w > lp_l) ++correct;
  }
  return static_cast<double>(correct) / static_cast<double>(pairs.size());
}

}  // namespace vpr::align
