// offline_table4: a scaled-down Table IV regeneration, cold, one caller.
// Archive of all 17 suite designs at their real cell counts (random recipe
// sets plus the product's greedy expert points, DatasetConfig defaults
// except the point counts below), then 4-fold MDPO cross-validation with
// zero-shot evaluation at a reduced epoch and pair count.

#include <unistd.h>

#include <cstdlib>
#include <filesystem>
#include <memory>

#include "align/dataset.h"
#include "align/evaluator.h"
#include "common.h"
#include "flow/eval.h"
#include "flow/flow.h"
#include "inputs.h"
#include "layers.h"
#include "netlist/suite.h"
#include "obs/trace.h"
#include "util/rng.h"

namespace perfbench {
namespace {

namespace fs = std::filesystem;
using vpr::align::DatasetConfig;
using vpr::align::OfflineDataset;
using vpr::flow::FlowEval;

// Per design: 12 random recipe sets run in parallel through eval_many, then
// a greedy chain of 4 expert points from the best of them. (The
// DatasetConfig default of 24 expert points would leave 2 random sets at
// this scale, and a run's cost would hinge on those 2 draws.)
constexpr int kPointsPerDesign = 16;
constexpr int kExpertPoints = 4;
constexpr int kEpochs = 2;
constexpr int kPairsPerDesign = 24;
constexpr int kSampledQorChecks = 6;

struct Pass {
  double offline_s = 0.0;
  double archive_s = 0.0;
  double cv_s = 0.0;
  double mean_win_pct = 0.0;
  OfflineDataset dataset;
  vpr::align::CrossValidationResult cv;
  vpr::flow::FlowEvalStats archive_stats;
  vpr::flow::FlowEvalStats total_stats;
};

/// A fresh, empty cache directory for one pass, under the directory the
/// process was started with (INSIGHTALIGN_CACHE_DIR, else the working
/// tree); the product must neither find anything in it nor leave anything
/// behind.
std::string fresh_cache_dir(int pass) {
  static const fs::path base = [] {
    const char* env = std::getenv("INSIGHTALIGN_CACHE_DIR");
    return env != nullptr && env[0] != '\0'
               ? fs::path(env)
               : fs::current_path() / ".bench_build" / "cold";
  }();
  const fs::path dir =
      base / (std::to_string(::getpid()) + "-" + std::to_string(pass));
  fs::remove_all(dir);
  fs::create_directories(dir);
  return dir.string();
}

Pass cold_pass(const std::vector<const vpr::flow::Design*>& designs,
               int pass_index, Result& out) {
  const std::string cache = fresh_cache_dir(pass_index);
  ::setenv("INSIGHTALIGN_CACHE_DIR", cache.c_str(), 1);
  FlowEval& eval = FlowEval::shared();
  eval.clear();
  if (eval.size() != 0) out.fail("FlowEval not empty after clear()");

  Pass pass;
  const auto t0 = Clock::now();
  {
    vpr::obs::TraceSpan span{"align.archive", "bench"};
    DatasetConfig config;
    config.points_per_design = kPointsPerDesign;
    config.expert_points = kExpertPoints;
    pass.dataset = OfflineDataset::build(designs, config);
  }
  pass.archive_s = seconds_since(t0);
  pass.archive_stats = eval.stats();

  // Recipe-set, fold and training seeds stay at the product defaults; the
  // run's inputs are its re-seeded netlists. Per-run recipe sets or model
  // inits would swing the cost of every archive and validation flow.
  vpr::align::EvalConfig ec;
  ec.folds = 4;
  ec.beam_width = 5;
  ec.train.epochs = kEpochs;
  ec.train.pairs_per_design = kPairsPerDesign;
  const auto t1 = Clock::now();
  {
    vpr::obs::TraceSpan span{"align.cv", "bench"};
    const vpr::align::ZeroShotEvaluator evaluator{designs, pass.dataset, ec};
    pass.cv = evaluator.run();
  }
  pass.cv_s = seconds_since(t1);
  pass.offline_s = seconds_since(t0);
  pass.total_stats = eval.stats();
  pass.mean_win_pct = pass.cv.mean_win_pct();

  // Cold start, verified: no probe may be served from memory while the
  // archive is built, and the cache directory stays untouched.
  if (pass.archive_stats.probe_hits != 0) {
    out.fail("archive phase had " +
             std::to_string(pass.archive_stats.probe_hits) + " probe hits");
  }
  if (!fs::is_empty(cache)) out.fail("product wrote into the cold cache dir");
  fs::remove_all(cache);
  return pass;
}

/// Bitwise QoR check of a seeded sample of archive and validation points
/// against the from-scratch reference flow.
void check_qor_sample(const std::vector<const vpr::flow::Design*>& designs,
                      const Pass& pass, std::uint64_t seed, Result& out) {
  vpr::util::Rng rng{seed};
  for (int i = 0; i < kSampledQorChecks; ++i) {
    const auto d = static_cast<std::size_t>(
        rng.uniform_int(0, static_cast<int>(designs.size()) - 1));
    const bool validation = i % 2 == 1;
    const auto& points = validation ? pass.cv.rows[d].recommendations
                                    : pass.dataset.design(d).points;
    if (points.empty()) {
      out.fail("design " + designs[d]->name() + " has no points");
      continue;
    }
    const auto& p = points[static_cast<std::size_t>(
        rng.uniform_int(0, static_cast<int>(points.size()) - 1))];
    const vpr::flow::Flow flow{*designs[d]};
    const auto ref = flow.run_reference(p.recipes).qor;
    ++out.attempted;
    if (ref.power != p.power || ref.tns != p.tns) {
      out.fail(std::string(validation ? "validation" : "archive") +
               " QoR of " + designs[d]->name() + " " +
               p.recipes.to_string() + " differs from run_reference");
    }
  }
}

}  // namespace

void run_offline_table4(const Options& opt, Result& out) {
  const InputGen gen{opt.seed};
  std::vector<std::unique_ptr<vpr::flow::Design>> owned;
  std::vector<const vpr::flow::Design*> designs;
  // Set-up: generate the 17 suite designs at their real cell counts, each
  // with a netlist seed of this run's own. It takes about 0.1 s on one
  // thread, so it is repeated 11 times, each on the next CPU.
  double setup_s = 0.0;
  {
    CpuRotation cpus;
    setup_s = median_setup_seconds("offline_table4", 11, [&] {
      cpus.next();
      designs.clear();
      owned.clear();
      for (int k = 1; k <= vpr::netlist::kSuiteSize; ++k) {
        owned.push_back(std::make_unique<vpr::flow::Design>(gen.reseeded(k)));
        designs.push_back(owned.back().get());
      }
    });
  }
  require_distinct_designs(designs, out);

  // Untraced pass: the end-to-end numbers (and the overhead baseline of a
  // traced run).
  Pass pass = cold_pass(designs, 0, out);
  require_distinct_recipe_sets(pass.dataset, out);
  check_qor_sample(designs, pass, gen.stream(0xc4ecULL), out);
  out.attempted += 2 * designs.size();  // archived designs + Table IV rows
  const double repeat_share =
      static_cast<double>(pass.total_stats.hits + pass.total_stats.probe_hits) /
      static_cast<double>(std::max<std::uint64_t>(
          1, pass.total_stats.hits + pass.total_stats.misses +
                 pass.total_stats.probe_hits + pass.total_stats.probe_misses));
  std::printf("offline_table4: archive %.2f s + cv %.2f s = offline_s "
              "%.2f s, mean Win%% %.2f, %d points, flow lookups %llu hit / "
              "%llu miss, repeated inputs %.3f\n",
              pass.archive_s, pass.cv_s, pass.offline_s, pass.mean_win_pct,
              pass.dataset.total_points(),
              static_cast<unsigned long long>(pass.total_stats.hits),
              static_cast<unsigned long long>(pass.total_stats.misses),
              repeat_share);

  if (!opt.trace) {
    out.set("setup_s", setup_s, "s");
    // Mean archive time per design: the 17 designs differ widely in size.
    out.set("latency_ms",
            1000.0 * pass.archive_s / static_cast<double>(designs.size()),
            "ms");
    out.set("throughput_per_s",
            static_cast<double>(designs.size()) / pass.offline_s, "1/s");
    out.set("peak_rss_mb", peak_rss_mb(), "MB");
    return;
  }

  auto& recorder = vpr::obs::TraceRecorder::instance();
  recorder.clear();
  recorder.set_enabled(true);
  const std::int64_t t0 = vpr::obs::TraceRecorder::now_us();
  Pass traced = cold_pass(designs, 1, out);
  const std::int64_t t1 = vpr::obs::TraceRecorder::now_us();
  recorder.set_enabled(false);
  if (traced.mean_win_pct != pass.mean_win_pct) {
    out.fail("traced pass changed Table IV");
  }
  const LayerTable table = reduce_trace(recorder.snapshot(), t0, t1);
  print_layer_table("offline_table4", table);
  LayerInputs in;
  in.table = &table;
  in.flow_stats = traced.total_stats;
  in.untraced_wall_s = pass.offline_s;
  in.traced_wall_s = traced.offline_s;
  in.repeat_share = repeat_share;
  fill_common_layers(in, out);
  out.set_layer("align.archive_s", traced.archive_s, "s");
  out.set_layer("align.cv_s", traced.cv_s, "s");
  out.set_layer("align.table4_mean_win_pct", traced.mean_win_pct, "%");
}

}  // namespace perfbench
