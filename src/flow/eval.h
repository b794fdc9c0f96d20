#pragma once
// FlowEval: a thread-safe memoizing evaluation service over Flow::run.
// Every layer of the reproduction — offline dataset build, beam-search
// re-ranking in Pipeline::recommend, online MDPO+PPO tuning, the bench
// harnesses — re-evaluates (design, recipe set) pairs that were already
// run moments earlier; since the flow is deterministic, each pair needs to
// be evaluated exactly once per process.
//
// The memo is one in-memory table keyed by (design fingerprint,
// RecipeSet::to_u64()), where the fingerprint hashes every DesignTraits
// field. Each key is claimed once (flow/memo.h): concurrent requests for
// it wait for the single evaluation instead of duplicating it, and a
// finished entry is read without a lock. Probing runs (default recipe
// set, full FlowResult kept for insight extraction) are kept with the
// design's warm Flow and evicted with it (kMaxWarmFlows, LRU).
//
// Observability: hit/miss counters and flow wall time live in the
// process-wide obs::MetricsRegistry (flow.eval.* series, exported by
// `--metrics-out` / `insightalign metrics`); FlowEvalStats is a *view*
// over those series — each FlowEval snapshots the registry at construction
// (and reset_stats()) and stats() reports the delta, so per-instance
// numbers in tests keep working while the process exports one monotone
// series (see docs/flow_eval.md).

#include <cstdint>
#include <functional>
#include <memory>
#include <mutex>
#include <span>
#include <utility>

#include "flow/flow.h"
#include "flow/memo.h"
#include "flow/recipe.h"

namespace vpr::flow {

struct FlowEvalStats {
  std::uint64_t hits = 0;          // QoR lookups served from memory
  std::uint64_t misses = 0;        // QoR lookups that ran the flow
  std::uint64_t probe_hits = 0;    // probing-run lookups served from memory
  std::uint64_t probe_misses = 0;  // probing runs executed
  double eval_seconds = 0.0;       // wall time inside Flow::run

  /// Total Flow::run executions (QoR + probe misses).
  [[nodiscard]] std::uint64_t evaluations() const {
    return misses + probe_misses;
  }
  /// Fraction of lookups served without running the flow.
  [[nodiscard]] double hit_rate() const;
};

class FlowEval {
 public:
  FlowEval();
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

  /// probe() for callers that run while other designs are evaluated: the
  /// pointer shares ownership of the result, so it stays valid however
  /// many designs are touched meanwhile.
  std::shared_ptr<const FlowResult> probe_pinned(const Design& design);

  /// Evaluates `sets` (deduplicated via the cache) on the shared
  /// ThreadPool and hands each result to sink(i, qor), i the set's input
  /// index; sink must write to disjoint slots. Runs in two waves: the
  /// first set of each distinct resolved PlacerKnobs, then the rest (each
  /// in input order), so no set of the batch waits on a placement another
  /// set of the batch is computing while that placement could use its
  /// thread. The order changes only wall time: the memo is deterministic
  /// and claim-once.
  void eval_many(const Design& design, std::span<const RecipeSet> sets,
                 const std::function<void(std::size_t, const Qor&)>& sink);

  [[nodiscard]] FlowEvalStats stats() const;
  void reset_stats();
  /// Drops every cached entry (QoR and probe) and resets the counters.
  void clear();
  /// Number of cached QoR entries.
  [[nodiscard]] std::size_t size() const;

  /// Process-wide instance used by the dataset builder, pipeline,
  /// evaluator, online tuner and bench harnesses.
  static FlowEval& shared();

 private:
  struct FlowHolder;
  using Key = std::pair<std::uint64_t, std::uint64_t>;  // (fingerprint, bits)
  struct KeyHash {
    std::size_t operator()(const Key& key) const noexcept;
  };

  /// The persistent Flow and probe slot for `design` (owning its own
  /// Design copy so the caller's may die), built on first use. Keeping
  /// Flows alive across evaluations is what lets the placement + route
  /// memo amortize work across recipe sets on one design.
  std::shared_ptr<const FlowHolder> flow_for(const Design& design,
                                             std::uint64_t fp);

  detail::Memo<Key, Qor, KeyHash> qor_;  // never evicted
  detail::Memo<std::uint64_t, FlowHolder> flows_{kMaxWarmFlows};
  // Registry (flow.eval.*) values at construction / reset_stats();
  // stats() = registry now - baseline.
  mutable std::mutex baseline_mutex_;
  FlowEvalStats baseline_;
};

}  // namespace vpr::flow
