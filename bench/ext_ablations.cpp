// Ablation experiments for the design decisions called out in DESIGN.md:
//   1. margin-based DPO (eq. 2) vs plain DPO (eq. 1) vs supervised NLL
//   2. insight conditioning vs blinded insights
//   3. beam width sweep K in {1, 3, 5, 10}
// All ablations run on one fixed train/test split (the last 4 designs held
// out) so differences are attributable to the ablated component.

#include <iostream>
#include <optional>

#include "align/beam.h"
#include "bench_common.h"
#include "util/stats.h"
#include "util/table.h"
#include "util/thread_pool.h"

int main() {
  using namespace vpr;
  using vpr::bench::fast_mode;
  std::cout << "EXT: Ablations (fixed split: D14-D17 held out)\n\n";
  auto world = vpr::bench::load_world();

  std::vector<std::size_t> train_split;
  std::vector<std::size_t> test_split;
  for (std::size_t d = 0; d < world.dataset.size(); ++d) {
    (d < world.dataset.size() - 4 ? train_split : test_split).push_back(d);
  }

  align::EvalConfig ec = vpr::bench::eval_config();

  struct Variant {
    std::string name;
    align::TrainConfig config;
  };
  std::vector<Variant> variants;
  {
    align::TrainConfig base = vpr::bench::train_config();
    variants.push_back({"margin-DPO (paper)", base});
    align::TrainConfig plain = base;
    plain.loss = align::LossKind::kPlainDpo;
    variants.push_back({"plain DPO (eq. 1)", plain});
    align::TrainConfig nll = base;
    nll.loss = align::LossKind::kSupervisedNll;
    variants.push_back({"supervised NLL", nll});
    align::TrainConfig blind = base;
    blind.blind_insights = true;
    variants.push_back({"margin-DPO, insights blinded", blind});
  }

  util::TablePrinter table({"Variant", "Unseen pair-rank acc.",
                            "Mean Win% (4 unseen designs)",
                            "Mean rec QoR - best-known QoR"});
  std::vector<align::ModelConfig> model_configs(variants.size());
  // Extension variant: a 2-layer decoder stack (paper uses 1 layer).
  {
    align::TrainConfig base = vpr::bench::train_config();
    variants.push_back({"margin-DPO, 2 decoder layers", base});
    align::ModelConfig deep;
    deep.decoder_layers = 2;
    model_configs.push_back(deep);
  }
  // The variants are independent, so they run as pool tasks; training and
  // the validation flows inside each nest on the same pool. A variant
  // writes only its own row slot, and the rows print in variant order.
  std::vector<std::vector<std::string>> rows(variants.size());
  std::optional<align::RecipeModel> paper_model;  // variant 0, for the sweep
  util::ThreadPool::shared().parallel_for(variants.size(), [&](std::size_t v) {
    const auto& variant = variants[v];
    util::Rng rng{util::hash_combine(0xab1a7eULL, v)};
    align::RecipeModel model{model_configs[v], rng};
    align::AlignmentTrainer trainer{model, variant.config};
    trainer.train(world.dataset, train_split);
    const double acc =
        trainer.evaluate_pair_accuracy(world.dataset, test_split);

    align::EvalConfig variant_ec = ec;
    variant_ec.train = variant.config;
    const align::ZeroShotEvaluator evaluator{world.designs, world.dataset,
                                             variant_ec};
    std::vector<double> wins;
    std::vector<double> deltas;
    for (const std::size_t d : test_split) {
      const auto row = evaluator.evaluate_design(model, d, ec.beam_width);
      wins.push_back(row.win_pct);
      deltas.push_back(row.rec_score - row.known_score);
    }
    rows[v] = {variant.name, util::fmt(acc, 3),
               util::fmt(util::mean(wins), 1),
               util::fmt(util::mean(deltas), 2)};
    if (v == 0) paper_model.emplace(std::move(model));
  });
  for (auto& row : rows) table.add_row(std::move(row));
  table.print(std::cout);

  // Beam-width sweep using the margin-DPO model.
  std::cout << "\nBeam width sweep (margin-DPO model, unseen designs):\n";
  util::TablePrinter beam_table({"K", "Mean Win%", "Mean best-of-K QoR"});
  const align::ZeroShotEvaluator evaluator{world.designs, world.dataset, ec};
  for (const int k : {1, 3, 5, 10}) {
    std::vector<double> wins;
    std::vector<double> scores;
    for (const std::size_t d : test_split) {
      const auto row = evaluator.evaluate_design(*paper_model, d, k);
      wins.push_back(row.win_pct);
      scores.push_back(row.rec_score);
    }
    beam_table.add_row({std::to_string(k), util::fmt(util::mean(wins), 1),
                        util::fmt(util::mean(scores), 3)});
  }
  beam_table.print(std::cout);

  std::cout << "\nExpected shape: margin-DPO >= plain DPO > supervised NLL; "
               "blinding insights hurts transfer; wider beams help "
               "monotonically with diminishing returns.\n";
  return 0;
}
