// recommend_unseen: one caller issuing Pipeline::recommend(design, 5) back
// to back (closed loop) on seeded variants of designs the model never saw.
// Every call is a serial chain on a brand-new design: probe flow, insight
// analysis, beam search and K = 5 validation flows, so caches and warm
// per-design state cannot help. Set-up aligns the model cold (archive and
// MDPO training); a traced run traces one such alignment too, so the
// archive, training and Adam layers are measured here.

#include <memory>

#include "align/beam.h"
#include "align/dataset.h"
#include "align/pipeline.h"
#include "common.h"
#include "flow/eval.h"
#include "flow/flow.h"
#include "inputs.h"
#include "insight/insight.h"
#include "layers.h"
#include "netlist/suite.h"
#include "obs/trace.h"

namespace perfbench {
namespace {

using vpr::flow::FlowEval;

// The model is aligned on mid-size suite designs; the calls run on
// variants of the others. Each small design's calls form a cluster of
// latencies. With three small designs in equal shares the median falls
// inside the middle cluster (D4); with an even number it would sit on the
// edge between two and jump between them from seed to seed. Every
// kLargeEvery-th call is a D17-class variant, so p90 falls in the
// large-design cluster. The loop runs whole cycles of kLargeEvery calls,
// so every run has the same mix of designs.
constexpr int kTrainDesigns[] = {6, 8, 5, 7};
constexpr int kSmallHeldOut[] = {11, 4, 14};
constexpr int kLargeHeldOut = 17;
constexpr int kLargeEvery = 8;
constexpr int kBeamWidth = 5;
constexpr int kReferenceFlowEvery = 16;  // sampled run_reference checks

/// The suite design call `i` is a variant of.
int call_base(int i) {
  return i % kLargeEvery == kLargeEvery - 1
             ? kLargeHeldOut
             : kSmallHeldOut[i % std::size(kSmallHeldOut)];
}

vpr::netlist::DesignTraits call_traits(const InputGen& gen, int i) {
  return gen.variant(call_base(i), i);
}

struct Call {
  double ms = 0.0;
  std::vector<vpr::align::Recommendation> recs;
};

/// Checks one recommend against the oracles: candidates equal
/// beam_search_reference on the design's probed insight, and (sampled)
/// validated QoR equals the from-scratch reference flow.
void check_call(const vpr::align::Pipeline& pipeline,
                const vpr::flow::Design& design, const Call& call, int i,
                Result& out) {
  const auto vec =
      vpr::insight::analyze(design, FlowEval::shared().probe(design));
  const std::vector<double> iv(vec.begin(), vec.end());
  const auto ref =
      vpr::align::beam_search_reference(pipeline.model(), iv, kBeamWidth);
  bool same = ref.size() == call.recs.size();
  for (std::size_t c = 0; same && c < ref.size(); ++c) {
    same = ref[c].recipes == call.recs[c].recipes &&
           ref[c].log_prob == call.recs[c].log_prob;
  }
  if (!same) out.fail("recommend on " + design.name() +
                      " differs from beam_search_reference");
  if (i % kReferenceFlowEvery == 0 && !call.recs.empty()) {
    const auto pick = static_cast<std::size_t>(i / kReferenceFlowEvery);
    const auto& rec = call.recs[pick % call.recs.size()];
    const auto q = vpr::flow::Flow{design}.run_reference(rec.recipes).qor;
    if (q.power != rec.power || q.tns != rec.tns) {
      out.fail("validated QoR on " + design.name() +
               " differs from run_reference");
    }
  }
}

/// Cold alignment on the training designs at the product's default seeds:
/// OfflineDataset::build, then Pipeline::fit on that archive (what
/// Pipeline::fit(designs) does, with the archive phase spanned apart).
std::unique_ptr<vpr::align::Pipeline> fit_cold() {
  FlowEval::shared().clear();
  std::vector<std::unique_ptr<vpr::flow::Design>> owned;
  std::vector<const vpr::flow::Design*> designs;
  for (const int k : kTrainDesigns) {
    owned.push_back(
        std::make_unique<vpr::flow::Design>(vpr::netlist::suite_design(k)));
    designs.push_back(owned.back().get());
  }
  vpr::align::PipelineConfig config;
  config.dataset.points_per_design = 5;
  config.train.epochs = 2;
  config.train.pairs_per_design = 24;
  auto pipeline = std::make_unique<vpr::align::Pipeline>(config);
  vpr::align::OfflineDataset dataset;
  {
    vpr::obs::TraceSpan span{"align.archive", "bench"};
    dataset = vpr::align::OfflineDataset::build(designs, config.dataset);
  }
  pipeline->fit(std::move(dataset));
  return pipeline;
}

}  // namespace

void run_recommend_unseen(const Options& opt, Result& out) {
  const InputGen gen{opt.seed};
  std::unique_ptr<vpr::align::Pipeline> pipeline;
  // Set-up: align a model on an archive of the training designs, cold, at
  // the product's default seeds. The model is the system under test, not
  // an input: a per-seed model would change which recipe sets every call
  // validates, and so the cost of the whole run.
  const double setup_s = median_setup_seconds("recommend_unseen", 7, [&] {
    pipeline.reset();
    pipeline = fit_cold();
  });
  FlowEval::shared().clear();

  // Untraced closed loop of whole cycles for --seconds (half of it in a
  // traced run, whose other half replays the same calls traced), each call
  // on the next CPU (the replay visits them in the same order).
  const double loop_s = opt.trace ? opt.seconds / 2.0 : opt.seconds;
  std::vector<Call> calls;
  RepeatLedger fingerprints;
  auto cpus = std::make_unique<CpuRotation>();
  const auto loop_start = Clock::now();
  for (int i = 0;
       i % kLargeEvery != 0 || seconds_since(loop_start) < loop_s; ++i) {
    cpus->next();
    const vpr::flow::Design design{call_traits(gen, i)};
    if (!fingerprints.add(FlowEval::fingerprint(design))) {
      out.fail("variant " + design.name() + " repeats a fingerprint");
    }
    Call call;
    const auto t0 = Clock::now();
    call.recs = pipeline->recommend(design, kBeamWidth);
    call.ms = ms_since(t0);
    ++out.attempted;
    check_call(*pipeline, design, call, i, out);
    calls.push_back(std::move(call));
  }
  cpus.reset();
  std::vector<double> ms;
  double total_ms = 0.0;
  for (const auto& c : calls) {
    ms.push_back(c.ms);
    total_ms += c.ms;
  }
  const double n_calls = static_cast<double>(calls.size());
  std::printf("recommend_unseen: %zu calls, p50 %.2f ms, p90 %.2f ms, "
              "max %.2f ms, mean %.2f ms, repeated inputs %.3f\n",
              calls.size(), median(ms), percentile(ms, 0.9),
              percentile(ms, 1.0), total_ms / n_calls,
              fingerprints.repeat_share());
  std::printf("recommend_unseen: p50 by base design:");
  for (const int k : {kSmallHeldOut[0], kSmallHeldOut[1], kSmallHeldOut[2],
                      kLargeHeldOut}) {
    std::vector<double> of_k;
    for (std::size_t i = 0; i < calls.size(); ++i) {
      if (call_base(static_cast<int>(i)) == k) of_k.push_back(calls[i].ms);
    }
    std::printf(" D%d %.1f ms (%zu)", k, median(of_k), of_k.size());
  }
  std::printf("\n");

  if (!opt.trace) {
    out.set("setup_s", setup_s, "s");
    out.set("latency_ms", median(ms), "ms");
    out.set("throughput_per_s", 1000.0 * n_calls / total_ms, "1/s");
    out.set("peak_rss_mb", peak_rss_mb(), "MB");
    return;
  }

  // Traced replay of the calls, cold again.
  FlowEval::shared().clear();
  auto& recorder = vpr::obs::TraceRecorder::instance();
  recorder.clear();
  recorder.set_enabled(true);
  const std::int64_t t0 = vpr::obs::TraceRecorder::now_us();
  double traced_ms = 0.0;
  const std::size_t replayed = calls.size();
  cpus = std::make_unique<CpuRotation>();
  for (std::size_t i = 0; i < replayed; ++i) {
    cpus->next();
    std::unique_ptr<vpr::flow::Design> design;
    {
      vpr::obs::TraceSpan span{"netlist.generate", "bench"};
      design = std::make_unique<vpr::flow::Design>(
          call_traits(gen, static_cast<int>(i)));
    }
    const auto tc = Clock::now();
    std::vector<vpr::align::Recommendation> recs;
    {
      vpr::obs::TraceSpan span{"align.recommend", "bench"};
      recs = pipeline->recommend(*design, kBeamWidth);
    }
    traced_ms += ms_since(tc);
    for (std::size_t c = 0; c < recs.size(); ++c) {
      if (recs[c].recipes != calls[i].recs[c].recipes) {
        out.fail("traced recommend on " + design->name() + " changed");
        break;
      }
    }
  }
  cpus.reset();
  const std::int64_t t1 = vpr::obs::TraceRecorder::now_us();
  recorder.set_enabled(false);
  const auto traced_stats = FlowEval::shared().stats();
  const LayerTable table = reduce_trace(recorder.snapshot(), t0, t1);
  print_layer_table("recommend_unseen", table);

  // Beam search inside recommend has no span of its own; time the same
  // call on the same insight from here.
  std::vector<double> beam_ms;
  for (std::size_t i = 0; i < replayed; i += 4) {
    const vpr::flow::Design design{call_traits(gen, static_cast<int>(i))};
    const auto vec =
        vpr::insight::analyze(design, FlowEval::shared().probe(design));
    const std::vector<double> iv(vec.begin(), vec.end());
    const auto tb = Clock::now();
    const auto cands =
        vpr::align::beam_search(pipeline->model(), iv, kBeamWidth);
    beam_ms.push_back(ms_since(tb));
    if (cands.empty()) out.fail("empty beam");
  }

  // One cold alignment, traced in a window of its own: the archive,
  // training and Adam layers.
  recorder.clear();
  recorder.set_enabled(true);
  const std::int64_t f0 = vpr::obs::TraceRecorder::now_us();
  fit_cold();
  const std::int64_t f1 = vpr::obs::TraceRecorder::now_us();
  recorder.set_enabled(false);
  const LayerTable fit = reduce_trace(recorder.snapshot(), f0, f1);
  print_layer_table("recommend_unseen set-up (cold alignment)", fit);

  LayerInputs in;
  in.table = &table;
  in.flow_stats = traced_stats;
  double untraced_ms = 0.0;
  for (std::size_t i = 0; i < replayed; ++i) untraced_ms += calls[i].ms;
  in.untraced_wall_s = untraced_ms / 1000.0;
  in.traced_wall_s = traced_ms / 1000.0;
  in.repeat_share = fingerprints.repeat_share();
  fill_common_layers(in, out);
  fill_training_layers(fit, out);
  out.set_layer("align.archive_s",
                fit.span("align.archive").inclusive_ms / 1000.0, "s");
  // p90 moves by a quarter between seeds (it is set by the 1-in-8
  // D17-class calls): reported here, not end to end.
  out.set_layer("align.recommend_ms.p90", percentile(ms, 0.9), "ms");
  out.set_layer("align.recommend_glue_ms.p50",
                median(table.span("align.recommend").self_each_ms), "ms");
  double beam_sum = 0.0;
  for (const double b : beam_ms) beam_sum += b;
  out.set_layer("align.beam_ms_per_recommend",
                beam_sum / static_cast<double>(std::max<std::size_t>(
                                1, beam_ms.size())),
                "ms");
}

}  // namespace perfbench
