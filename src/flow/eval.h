#pragma once
// FlowEval: a thread-safe memoizing evaluation service over Flow::run.
// Every layer of the reproduction — offline dataset build, beam-search
// re-ranking in Pipeline::recommend, online MDPO+PPO tuning, the bench
// harnesses — re-evaluates (design, recipe set) pairs that were already
// run moments earlier; since the flow is deterministic, each pair needs to
// be evaluated exactly once per process.
//
// The cache is keyed by (design fingerprint, RecipeSet::to_u64()) where the
// fingerprint hashes every DesignTraits field, and is sharded to keep lock
// contention off the parallel evaluation paths. Concurrent requests for the
// same key block on the entry until the single evaluation finishes (hit),
// never duplicating work. Probing runs (default recipe set, full FlowResult
// kept for insight extraction) are kept with the design's warm Flow and
// evicted with it (kMaxWarmFlows, LRU).
//
// Observability: hit/miss/evaluation counters and wall-time per service
// stage (lookup, evaluation, disk I/O) live in the process-wide
// obs::MetricsRegistry (flow.eval.* series, exported by `--metrics-out` /
// `insightalign metrics`); FlowEvalStats is a *view* over those series —
// each FlowEval snapshots the registry at construction (and reset_stats())
// and stats() reports the delta, so per-instance numbers in tests keep
// working while the process exports one monotone series. An optional
// binary spill layer persists the QoR entries under INSIGHTALIGN_CACHE_DIR
// so later processes start warm (see docs/flow_eval.md).

#include <cstdint>
#include <functional>
#include <iosfwd>
#include <memory>
#include <mutex>
#include <span>
#include <string>
#include <unordered_map>
#include <vector>

#include "flow/flow.h"
#include "flow/recipe.h"

namespace vpr::flow {

struct FlowEvalStats {
  std::uint64_t hits = 0;          // QoR lookups served from memory
  std::uint64_t misses = 0;        // QoR lookups that ran the flow
  std::uint64_t probe_hits = 0;    // probing-run lookups served from memory
  std::uint64_t probe_misses = 0;  // probing runs executed
  double eval_seconds = 0.0;       // wall time inside Flow::run
  double lookup_seconds = 0.0;     // wall time resolving warm hits
  double io_seconds = 0.0;         // wall time in save_disk/load_disk
  // Per-stage wall time summed over all executed flows (FlowResult::
  // stage_times) — where the cache-miss budget actually goes.
  double place_seconds = 0.0;
  double cts_seconds = 0.0;
  double route_seconds = 0.0;
  double sta_seconds = 0.0;
  double opt_seconds = 0.0;
  double power_seconds = 0.0;

  /// Total Flow::run executions (QoR + probe misses).
  [[nodiscard]] std::uint64_t evaluations() const {
    return misses + probe_misses;
  }
  /// Fraction of lookups served without running the flow.
  [[nodiscard]] double hit_rate() const;
  /// Estimated wall time avoided: hits x mean evaluation cost.
  [[nodiscard]] double saved_seconds() const;
};

class FlowEval {
 public:
  explicit FlowEval(std::size_t shards = 16);
  ~FlowEval();
  FlowEval(const FlowEval&) = delete;
  FlowEval& operator=(const FlowEval&) = delete;

  /// Stable 64-bit hash of every DesignTraits field (name, size, timing,
  /// activity, seed, ...) — the design half of the cache key.
  [[nodiscard]] static std::uint64_t fingerprint(const Design& design);

  /// Memoized signoff QoR of running `recipes` on `design`. Evaluates via
  /// Flow::run exactly once per (fingerprint, recipe set) key.
  Qor eval(const Design& design, const RecipeSet& recipes);

  /// Designs whose warm Flow (placement + route memo) and probing run are
  /// kept at once; the least recently used design is evicted beyond it.
  static constexpr std::size_t kMaxWarmFlows = 12;

  /// Memoized probing run (default recipe set), with the full FlowResult
  /// retained for insight extraction. The reference stays valid until
  /// clear(), destruction, or until kMaxWarmFlows further distinct designs
  /// have been probed or evaluated (the design's warm Flow, which holds
  /// the result, is then evicted; probing it again re-runs the flow).
  const FlowResult& probe(const Design& design);

  /// Evaluates `sets` (deduplicated via the cache) on the shared
  /// ThreadPool and hands each result to sink(i, qor); sink must write to
  /// disjoint slots. `threads` caps the participants (0 => no cap).
  void eval_many(const Design& design, std::span<const RecipeSet> sets,
                 const std::function<void(std::size_t, const Qor&)>& sink,
                 unsigned threads = 0);

  [[nodiscard]] FlowEvalStats stats() const;
  void reset_stats();
  /// Drops every cached entry (QoR and probe) and resets the counters.
  void clear();
  /// Number of cached QoR entries.
  [[nodiscard]] std::size_t size() const;

  /// Binary spill layer. save_disk writes every ready QoR entry and
  /// reports failure (bad stream, unwritable target) instead of leaving a
  /// truncated file; load_disk merges entries into the cache and returns
  /// false on missing/corrupt input without touching existing entries.
  bool save_disk(const std::string& path) const;
  bool load_disk(const std::string& path);
  /// Default spill location under INSIGHTALIGN_CACHE_DIR.
  [[nodiscard]] static std::string default_spill_path();

  /// Renders the stats as an ASCII table (util::TablePrinter).
  void print_stats(std::ostream& os) const;

  /// Process-wide instance used by the dataset builder, pipeline,
  /// evaluator, online tuner and bench harnesses.
  static FlowEval& shared();

 private:
  struct Entry;
  struct Shard;
  struct FlowHolder;

  Shard& shard_for(std::uint64_t fp, std::uint64_t rs) const;
  /// The persistent Flow and probe slot for `design` (owning its own
  /// Design copy so the caller's may die), creating/LRU-evicting as
  /// needed. Keeping Flows alive across evaluations is what lets the
  /// placement + route memo amortize work across recipe sets on one
  /// design.
  std::shared_ptr<FlowHolder> flow_for(const Design& design,
                                       std::uint64_t fp);

  std::vector<std::unique_ptr<Shard>> shards_;
  mutable std::mutex flows_mutex_;
  std::unordered_map<std::uint64_t, std::shared_ptr<FlowHolder>> flows_;
  std::uint64_t flow_tick_ = 0;
  // Registry (flow.eval.*) values at construction / reset_stats();
  // stats() = registry now - baseline.
  mutable std::mutex baseline_mutex_;
  FlowEvalStats baseline_;
};

}  // namespace vpr::flow
