#include "flow/eval.h"

#include <algorithm>
#include <bit>
#include <vector>

#include "obs/metrics.h"
#include "obs/trace.h"
#include "util/rng.h"
#include "util/thread_pool.h"

namespace vpr::flow {

namespace {

/// The process-wide flow.eval.* series every FlowEval instance feeds.
/// Registered once; counter updates are relaxed atomic RMWs, and the
/// eval_ms summary takes its own short lock once per flow run. The
/// per-stage series are exported (`--metrics-out`) but not part of
/// FlowEvalStats.
struct EvalMetrics {
  obs::Counter& hits;
  obs::Counter& misses;
  obs::Counter& probe_hits;
  obs::Counter& probe_misses;
  obs::CounterD& eval_seconds;
  obs::CounterD& place_seconds;
  obs::CounterD& cts_seconds;
  obs::CounterD& route_seconds;
  obs::CounterD& sta_seconds;
  obs::CounterD& opt_seconds;
  obs::CounterD& power_seconds;
  obs::Summary& eval_ms;

  static EvalMetrics& get() {
    static auto& r = obs::MetricsRegistry::instance();
    static EvalMetrics m{
        r.counter("flow.eval.hits", "QoR lookups served from memory"),
        r.counter("flow.eval.misses", "QoR lookups that ran the flow"),
        r.counter("flow.eval.probe_hits", "probing-run lookups from memory"),
        r.counter("flow.eval.probe_misses", "probing runs executed"),
        r.counter_d("flow.eval.eval_seconds", "wall time inside Flow::run"),
        r.counter_d("flow.eval.stage.place_seconds", ""),
        r.counter_d("flow.eval.stage.cts_seconds", ""),
        r.counter_d("flow.eval.stage.route_seconds", ""),
        r.counter_d("flow.eval.stage.sta_seconds", ""),
        r.counter_d("flow.eval.stage.opt_seconds", ""),
        r.counter_d("flow.eval.stage.power_seconds", ""),
        r.summary("flow.eval.eval_ms",
                  "per-evaluation Flow::run wall milliseconds"),
    };
    return m;
  }
};

/// Current registry values as a FlowEvalStats (the "now" side of the
/// instance views).
FlowEvalStats registry_stats() {
  EvalMetrics& m = EvalMetrics::get();
  FlowEvalStats s;
  s.hits = m.hits.value();
  s.misses = m.misses.value();
  s.probe_hits = m.probe_hits.value();
  s.probe_misses = m.probe_misses.value();
  s.eval_seconds = m.eval_seconds.value();
  return s;
}

FlowEvalStats stats_delta(const FlowEvalStats& now,
                          const FlowEvalStats& baseline) {
  FlowEvalStats d;
  d.hits = now.hits - baseline.hits;
  d.misses = now.misses - baseline.misses;
  d.probe_hits = now.probe_hits - baseline.probe_hits;
  d.probe_misses = now.probe_misses - baseline.probe_misses;
  d.eval_seconds = now.eval_seconds - baseline.eval_seconds;
  return d;
}

/// Records one executed flow run: wall time, its distribution and the
/// per-stage split, all from the run's own clock reads (total_ms spans
/// exactly the run's `flow.run` trace span).
void record_run(const StageTimes& t) {
  EvalMetrics& m = EvalMetrics::get();
  m.eval_seconds.add(t.total_ms / 1e3);
  m.eval_ms.observe(t.total_ms);
  m.place_seconds.add(t.place_ms / 1e3);
  m.cts_seconds.add(t.cts_ms / 1e3);
  m.route_seconds.add(t.route_ms / 1e3);
  m.sta_seconds.add(t.sta_ms / 1e3);
  m.opt_seconds.add(t.opt_ms / 1e3);
  m.power_seconds.add(t.power_ms / 1e3);
}

}  // namespace

double FlowEvalStats::hit_rate() const {
  const std::uint64_t lookups = hits + misses;
  if (lookups == 0) return 0.0;
  return static_cast<double>(hits) / static_cast<double>(lookups);
}

std::size_t FlowEval::KeyHash::operator()(const Key& key) const noexcept {
  return static_cast<std::size_t>(util::hash_combine(key.first, key.second));
}

/// A design's persistent Flow and its probing run. Owns a copy of the
/// caller's Design (whose netlist is a pure function of the traits the
/// fingerprint hashes), so the cached Flow never dangles on a caller-owned
/// Design that goes away between evaluations. An evicted holder stays
/// alive (shared_ptr) until in-flight evaluations on it finish.
struct FlowEval::FlowHolder {
  explicit FlowHolder(const Design& d) : design(d), flow(design) {}
  Design design;
  Flow flow;
  mutable detail::MemoCell<FlowResult> probe;
};

std::shared_ptr<const FlowEval::FlowHolder> FlowEval::flow_for(
    const Design& design, std::uint64_t fp) {
  return flows_.get(fp, "warm_flow",
                    [&] { return std::make_shared<const FlowHolder>(design); });
}

FlowEval::FlowEval() : baseline_(registry_stats()) {}

FlowEval::~FlowEval() = default;

FlowEval& FlowEval::shared() {
  static FlowEval service;
  return service;
}

std::uint64_t FlowEval::fingerprint(const Design& design) {
  const netlist::DesignTraits& t = design.traits();
  std::uint64_t h = 0x1a11a5e7f10eULL;
  for (const char c : t.name) {
    h = util::hash_combine(h, static_cast<unsigned char>(c));
  }
  const auto mix_d = [&h](double v) {
    h = util::hash_combine(h, std::bit_cast<std::uint64_t>(v));
  };
  const auto mix_i = [&h](std::uint64_t v) { h = util::hash_combine(h, v); };
  mix_d(t.feature_nm);
  mix_i(static_cast<std::uint64_t>(t.target_cells));
  mix_d(t.clock_period_ns);
  mix_i(static_cast<std::uint64_t>(t.logic_depth));
  mix_d(t.ff_ratio);
  mix_d(t.high_fanout_ratio);
  mix_d(t.activity_mean);
  mix_d(t.lvt_ratio);
  mix_d(t.weak_drive_ratio);
  mix_d(t.congestion_propensity);
  mix_d(t.hold_sensitivity);
  mix_d(t.skew_sensitivity);
  mix_d(t.macro_ratio);
  mix_i(static_cast<std::uint64_t>(t.clusters));
  mix_i(t.seed);
  return h;
}

Qor FlowEval::eval(const Design& design, const RecipeSet& recipes) {
  const std::uint64_t fp = fingerprint(design);
  bool ran = false;
  const auto qor = qor_.get(Key{fp, recipes.to_u64()}, "qor", [&] {
    VPR_TRACE_SPAN("flow.eval.miss", "flow",
                   obs::TraceArgs{{"design", design.name()},
                                  {"recipes", recipes.to_string()}});
    const FlowResult run = flow_for(design, fp)->flow.run(recipes);
    record_run(run.stage_times);
    ran = true;
    return std::make_shared<const Qor>(run.qor);
  });
  EvalMetrics& metrics = EvalMetrics::get();
  (ran ? metrics.misses : metrics.hits).inc();
  return *qor;
}

const FlowResult& FlowEval::probe(const Design& design) {
  return *probe_pinned(design);
}

std::shared_ptr<const FlowResult> FlowEval::probe_pinned(
    const Design& design) {
  const std::shared_ptr<const FlowHolder> holder =
      flow_for(design, fingerprint(design));
  bool ran = false;
  auto result = holder->probe.get("probe", [&] {
    VPR_TRACE_SPAN("flow.eval.probe", "flow",
                   obs::TraceArgs{{"design", design.name()}});
    auto run =
        std::make_shared<const FlowResult>(holder->flow.run(RecipeSet{}));
    record_run(run->stage_times);
    ran = true;
    return run;
  });
  EvalMetrics& metrics = EvalMetrics::get();
  (ran ? metrics.probe_misses : metrics.probe_hits).inc();
  return result;
}

void FlowEval::eval_many(
    const Design& design, std::span<const RecipeSet> sets,
    const std::function<void(std::size_t, const Qor&)>& sink) {
  // Two waves: the first set of each distinct placement, then the rest,
  // each in input order. Sets sharing placer knobs share one memoized
  // placement, so the second wave finds every placement ready instead of
  // blocking on it (flow.memo.wait) while the placement it waits for
  // could use that thread. The placer knobs resolve without a netlist,
  // exactly as Flow::resolve_knobs does.
  std::vector<place::PlacerKnobs> placements;
  std::vector<std::size_t> first;
  std::vector<std::size_t> rest;
  for (std::size_t i = 0; i < sets.size(); ++i) {
    FlowKnobs knobs;
    sets[i].apply(knobs);
    if (std::find(placements.begin(), placements.end(), knobs.place) ==
        placements.end()) {
      placements.push_back(knobs.place);
      first.push_back(i);
    } else {
      rest.push_back(i);
    }
  }

  VPR_TRACE_SPAN(
      "flow.eval.many", "flow",
      obs::TraceArgs{{"sets", static_cast<std::int64_t>(sets.size())},
                     {"placements",
                      static_cast<std::int64_t>(placements.size())}});
  // Every miss of the waves needs the design's warm Flow: build it here,
  // so that none of them waits (flow.memo.wait) on another building it.
  if (!sets.empty()) (void)flow_for(design, fingerprint(design));
  const auto run_wave = [&](const std::vector<std::size_t>& wave) {
    util::ThreadPool::shared().parallel_for(wave.size(), [&](std::size_t w) {
      sink(wave[w], eval(design, sets[wave[w]]));
    });
  };
  run_wave(first);
  run_wave(rest);
}

FlowEvalStats FlowEval::stats() const {
  std::lock_guard lk{baseline_mutex_};
  return stats_delta(registry_stats(), baseline_);
}

void FlowEval::reset_stats() {
  std::lock_guard lk{baseline_mutex_};
  baseline_ = registry_stats();
}

void FlowEval::clear() {
  flows_.clear();
  qor_.clear();
  reset_stats();
}

std::size_t FlowEval::size() const { return qor_.size(); }

}  // namespace vpr::flow
