#include "flow/eval.h"

#include <algorithm>
#include <bit>
#include <chrono>
#include <filesystem>
#include <fstream>
#include <ostream>

#include "obs/metrics.h"
#include "obs/trace.h"
#include "util/rng.h"
#include "util/serialize.h"
#include "util/table.h"
#include "util/thread_pool.h"

namespace vpr::flow {

namespace {

using Clock = std::chrono::steady_clock;

double seconds_since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

// Spill file layout: magic, version, entry count, then (fingerprint,
// recipe bits, Qor fields) per entry.
constexpr std::uint32_t kEvalMagic = 0x1a5e7e0aU;
constexpr std::uint32_t kEvalVersion = 1;

/// The process-wide flow.eval.* series every FlowEval instance feeds.
/// Registered once; counter updates are relaxed atomic RMWs, and the
/// eval_ms summary takes its own short lock once per flow run.
struct EvalMetrics {
  obs::Counter& hits;
  obs::Counter& misses;
  obs::Counter& probe_hits;
  obs::Counter& probe_misses;
  obs::CounterD& eval_seconds;
  obs::CounterD& lookup_seconds;
  obs::CounterD& io_seconds;
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
        r.counter_d("flow.eval.lookup_seconds", "wall time on warm hits"),
        r.counter_d("flow.eval.io_seconds", "wall time in disk spill I/O"),
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
  s.lookup_seconds = m.lookup_seconds.value();
  s.io_seconds = m.io_seconds.value();
  s.place_seconds = m.place_seconds.value();
  s.cts_seconds = m.cts_seconds.value();
  s.route_seconds = m.route_seconds.value();
  s.sta_seconds = m.sta_seconds.value();
  s.opt_seconds = m.opt_seconds.value();
  s.power_seconds = m.power_seconds.value();
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
  d.lookup_seconds = now.lookup_seconds - baseline.lookup_seconds;
  d.io_seconds = now.io_seconds - baseline.io_seconds;
  d.place_seconds = now.place_seconds - baseline.place_seconds;
  d.cts_seconds = now.cts_seconds - baseline.cts_seconds;
  d.route_seconds = now.route_seconds - baseline.route_seconds;
  d.sta_seconds = now.sta_seconds - baseline.sta_seconds;
  d.opt_seconds = now.opt_seconds - baseline.opt_seconds;
  d.power_seconds = now.power_seconds - baseline.power_seconds;
  return d;
}

void accumulate_stage_times(const StageTimes& t) {
  EvalMetrics& m = EvalMetrics::get();
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

double FlowEvalStats::saved_seconds() const {
  if (misses == 0) return 0.0;
  const double mean_eval = eval_seconds / static_cast<double>(misses);
  return static_cast<double>(hits) * mean_eval;
}

struct FlowEval::Entry {
  std::mutex m;
  bool ready = false;
  Qor qor;
};

struct FlowEval::Shard {
  mutable std::mutex m;
  // fingerprint -> recipe bits -> entry
  std::unordered_map<std::uint64_t,
                     std::unordered_map<std::uint64_t, std::shared_ptr<Entry>>>
      map;
};

/// A design's persistent Flow and its probing run. Owns a Design copy
/// (regenerated from the traits, which is deterministic) so the cached
/// Flow never dangles on a caller-owned Design that goes away between
/// evaluations. Eviction is LRU over kMaxWarmFlows holders; an evicted
/// holder stays alive (shared_ptr) until in-flight evaluations on it
/// finish.
struct FlowEval::FlowHolder {
  explicit FlowHolder(const Design& d) : design(d.traits()), flow(design) {}
  Design design;
  Flow flow;
  std::uint64_t tick = 0;  // guarded by flows_mutex_
  std::mutex probe_mutex;  // held by the claiming thread while it probes
  std::unique_ptr<FlowResult> probe;
};

std::shared_ptr<FlowEval::FlowHolder> FlowEval::flow_for(const Design& design,
                                                         std::uint64_t fp) {
  std::lock_guard lk{flows_mutex_};
  std::shared_ptr<FlowHolder>& slot = flows_[fp];
  if (!slot) {
    if (flows_.size() > kMaxWarmFlows) {
      auto oldest = flows_.end();
      for (auto it = flows_.begin(); it != flows_.end(); ++it) {
        if (it->second &&
            (oldest == flows_.end() ||
             it->second->tick < oldest->second->tick)) {
          oldest = it;
        }
      }
      if (oldest != flows_.end()) flows_.erase(oldest);
    }
    slot = std::make_shared<FlowHolder>(design);
  }
  slot->tick = ++flow_tick_;
  return slot;
}

FlowEval::FlowEval(std::size_t shards) : baseline_(registry_stats()) {
  shards_.reserve(std::max<std::size_t>(1, shards));
  for (std::size_t s = 0; s < std::max<std::size_t>(1, shards); ++s) {
    shards_.push_back(std::make_unique<Shard>());
  }
}

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

FlowEval::Shard& FlowEval::shard_for(std::uint64_t fp, std::uint64_t rs) const {
  return *shards_[util::hash_combine(fp, rs) % shards_.size()];
}

Qor FlowEval::eval(const Design& design, const RecipeSet& recipes) {
  const std::uint64_t fp = fingerprint(design);
  const std::uint64_t rs = recipes.to_u64();
  const auto t0 = Clock::now();

  Shard& shard = shard_for(fp, rs);
  std::shared_ptr<Entry> entry;
  {
    std::lock_guard lk{shard.m};
    std::shared_ptr<Entry>& slot = shard.map[fp][rs];
    if (!slot) slot = std::make_shared<Entry>();
    entry = slot;
  }

  // The entry lock makes evaluation exactly-once: the first thread to
  // arrive runs the flow, concurrent requesters for the same key block
  // here and wake up to a warm hit.
  std::unique_lock elk{entry->m};
  EvalMetrics& metrics = EvalMetrics::get();
  if (entry->ready) {
    metrics.hits.inc();
    metrics.lookup_seconds.add(seconds_since(t0));
    return entry->qor;
  }

  VPR_TRACE_SPAN("flow.eval.miss", "flow",
                 obs::TraceArgs{{"design", design.name()},
                                {"recipes", recipes.to_string()}});
  const auto e0 = Clock::now();
  const std::shared_ptr<FlowHolder> holder = flow_for(design, fp);
  const FlowResult run_result = holder->flow.run(recipes);
  entry->qor = run_result.qor;
  entry->ready = true;
  const double elapsed = seconds_since(e0);
  metrics.misses.inc();
  metrics.eval_seconds.add(elapsed);
  metrics.eval_ms.observe(elapsed * 1e3);
  accumulate_stage_times(run_result.stage_times);
  return entry->qor;
}

const FlowResult& FlowEval::probe(const Design& design) {
  const std::shared_ptr<FlowHolder> holder =
      flow_for(design, fingerprint(design));
  std::lock_guard lk{holder->probe_mutex};
  EvalMetrics& metrics = EvalMetrics::get();
  if (holder->probe) {
    metrics.probe_hits.inc();
    return *holder->probe;
  }
  VPR_TRACE_SPAN("flow.eval.probe", "flow",
                 obs::TraceArgs{{"design", design.name()}});
  const auto e0 = Clock::now();
  holder->probe = std::make_unique<FlowResult>(holder->flow.run(RecipeSet{}));
  const double elapsed = seconds_since(e0);
  metrics.probe_misses.inc();
  metrics.eval_seconds.add(elapsed);
  metrics.eval_ms.observe(elapsed * 1e3);
  accumulate_stage_times(holder->probe->stage_times);
  return *holder->probe;
}

void FlowEval::eval_many(
    const Design& design, std::span<const RecipeSet> sets,
    const std::function<void(std::size_t, const Qor&)>& sink,
    unsigned threads) {
  util::ThreadPool::shared().parallel_for(
      sets.size(),
      [&](std::size_t i) { sink(i, eval(design, sets[i])); }, threads);
}

FlowEvalStats FlowEval::stats() const {
  std::lock_guard lk{baseline_mutex_};
  return stats_delta(registry_stats(), baseline_);
}

void FlowEval::reset_stats() {
  std::lock_guard lk{baseline_mutex_};
  const_cast<FlowEvalStats&>(baseline_) = registry_stats();
}

void FlowEval::clear() {
  for (auto& shard : shards_) {
    std::lock_guard lk{shard->m};
    shard->map.clear();
  }
  {
    std::lock_guard lk{flows_mutex_};
    flows_.clear();
  }
  reset_stats();
}

std::size_t FlowEval::size() const {
  std::size_t total = 0;
  for (const auto& shard : shards_) {
    std::lock_guard lk{shard->m};
    for (const auto& [fp, by_recipe] : shard->map) {
      total += by_recipe.size();
    }
  }
  return total;
}

std::string FlowEval::default_spill_path() {
  return util::cache_dir() + "/floweval_qor.bin";
}

bool FlowEval::save_disk(const std::string& path) const {
  const auto t0 = Clock::now();
  // Snapshot ready entries first so the file write holds no shard locks.
  struct Row {
    std::uint64_t fp;
    std::uint64_t rs;
    Qor qor;
  };
  std::vector<Row> rows;
  for (const auto& shard : shards_) {
    std::lock_guard lk{shard->m};
    for (const auto& [fp, by_recipe] : shard->map) {
      for (const auto& [rs, entry] : by_recipe) {
        std::lock_guard elk{entry->m};
        if (entry->ready) rows.push_back({fp, rs, entry->qor});
      }
    }
  }

  std::error_code ec;
  const auto parent = std::filesystem::path(path).parent_path();
  if (!parent.empty()) std::filesystem::create_directories(parent, ec);
  std::ofstream os{path, std::ios::binary};
  if (!os) return false;
  util::write_pod(os, kEvalMagic);
  util::write_pod(os, kEvalVersion);
  util::write_pod(os, static_cast<std::uint64_t>(rows.size()));
  for (const Row& row : rows) {
    util::write_pod(os, row.fp);
    util::write_pod(os, row.rs);
    util::write_pod(os, row.qor.wns);
    util::write_pod(os, row.qor.tns);
    util::write_pod(os, row.qor.hold_tns);
    util::write_pod(os, row.qor.power);
    util::write_pod(os, row.qor.area);
    util::write_pod(os, static_cast<std::int32_t>(row.qor.drcs));
  }
  os.flush();
  const bool ok = os.good();
  EvalMetrics::get().io_seconds.add(seconds_since(t0));
  return ok;
}

bool FlowEval::load_disk(const std::string& path) {
  const auto t0 = Clock::now();
  std::ifstream is{path, std::ios::binary};
  if (!is) return false;
  std::uint32_t magic = 0;
  std::uint32_t version = 0;
  std::uint64_t count = 0;
  if (!util::read_pod(is, magic) || magic != kEvalMagic) return false;
  if (!util::read_pod(is, version) || version != kEvalVersion) return false;
  if (!util::read_pod(is, count) || count > (1u << 26)) return false;
  for (std::uint64_t i = 0; i < count; ++i) {
    std::uint64_t fp = 0;
    std::uint64_t rs = 0;
    Qor qor;
    std::int32_t drcs = 0;
    if (!util::read_pod(is, fp) || !util::read_pod(is, rs) ||
        !util::read_pod(is, qor.wns) || !util::read_pod(is, qor.tns) ||
        !util::read_pod(is, qor.hold_tns) || !util::read_pod(is, qor.power) ||
        !util::read_pod(is, qor.area) || !util::read_pod(is, drcs)) {
      return false;
    }
    qor.drcs = drcs;
    Shard& shard = shard_for(fp, rs);
    std::lock_guard lk{shard.m};
    std::shared_ptr<Entry>& slot = shard.map[fp][rs];
    if (!slot) {
      slot = std::make_shared<Entry>();
      slot->qor = qor;
      slot->ready = true;
    }
  }
  EvalMetrics::get().io_seconds.add(seconds_since(t0));
  return true;
}

void FlowEval::print_stats(std::ostream& os) const {
  const FlowEvalStats s = stats();
  util::TablePrinter table({"FlowEval", "Value"});
  table.add_row({"cached entries", std::to_string(size())});
  table.add_row({"hits", std::to_string(s.hits)});
  table.add_row({"misses (evaluations)", std::to_string(s.misses)});
  table.add_row({"probe hits", std::to_string(s.probe_hits)});
  table.add_row({"probe misses", std::to_string(s.probe_misses)});
  table.add_row({"hit rate", util::fmt(100.0 * s.hit_rate(), 1) + "%"});
  table.add_row({"eval wall (s)", util::fmt(s.eval_seconds, 3)});
  table.add_row({"  stage place (s)", util::fmt(s.place_seconds, 3)});
  table.add_row({"  stage cts (s)", util::fmt(s.cts_seconds, 3)});
  table.add_row({"  stage route (s)", util::fmt(s.route_seconds, 3)});
  table.add_row({"  stage sta (s)", util::fmt(s.sta_seconds, 3)});
  table.add_row({"  stage opt (s)", util::fmt(s.opt_seconds, 3)});
  table.add_row({"  stage power (s)", util::fmt(s.power_seconds, 3)});
  table.add_row({"lookup wall (s)", util::fmt(s.lookup_seconds, 4)});
  table.add_row({"disk I/O wall (s)", util::fmt(s.io_seconds, 4)});
  table.add_row({"saved wall (s, est.)", util::fmt(s.saved_seconds(), 3)});
  table.print(os);
}

}  // namespace vpr::flow
