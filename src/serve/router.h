#pragma once
// Sharded multi-replica serving: N RecommendService replicas — each with
// its own batcher thread, admission queue and SessionArena — behind one
// Router that places requests and sheds load.
//
// Placement: each submit goes to the replica with the smallest backlog
// (queued + decoding), trying the next-smallest when that queue is full.
//
// Shedding: when aggregate queue utilization reaches kShedUtilization, or
// every queue is full, the router refuses the request *immediately* with
// kRejected plus a Retry-After-style hint (estimated backlog drain time)
// instead of letting it queue, so nothing is ever buffered unboundedly. A
// request whose deadline is shorter than the estimated wait is likewise
// shed up front (deadline-slack admission): decoding it would only steal
// capacity from requests that can still make their deadlines.
//
// The drain estimate divides the fleet backlog by the sum of the
// replicas' service rates, each measured by its own batcher as time spent
// admitting and decoding per finished request.

#include <atomic>
#include <chrono>
#include <cstdint>
#include <future>
#include <memory>
#include <vector>

#include "serve/service.h"

namespace vpr::serve {

struct RouterConfig {
  /// Number of replicas (each owns a batcher thread + SessionArena).
  int replicas = 2;
  /// Per-replica service configuration.
  ServiceConfig replica;
};

/// Router-level load counters plus a per-replica ServiceCounters snapshot.
struct RouterCounters {
  std::uint64_t routed = 0;  // placed on a replica
  std::uint64_t shed = 0;    // refused by the overload policy
  /// Fleet tail latency from merging every replica's QuantileSketch — the
  /// honest cross-replica p99/p99.9 (a mean of per-replica p99s is not a
  /// fleet p99). fleet_latency_count is the merged observation count.
  double fleet_p99_ms = 0.0;
  double fleet_p999_ms = 0.0;
  std::uint64_t fleet_latency_count = 0;
  std::vector<ServiceCounters> replica;

  /// Sums over the per-replica snapshots.
  [[nodiscard]] std::uint64_t total_completed() const;
  [[nodiscard]] std::uint64_t total_rejected() const;
  [[nodiscard]] util::Json to_json() const;
};

class Router {
 public:
  static constexpr std::chrono::milliseconds kNoDeadline =
      RecommendService::kNoDeadline;
  /// Aggregate queue utilization at which submissions are shed.
  static constexpr double kShedUtilization = 0.75;
  /// Service time assumed for a replica that has not finished a request
  /// yet: pessimistic, so early Retry-After hints err toward backing off.
  static constexpr double kColdStartMsPerRequest = 10.0;

  Router(const align::RecipeModel& model, RouterConfig config);
  /// Registry-backed fleet: every replica starts on registry->current()
  /// and hot-swaps independently at its own batch boundaries (replicas
  /// may briefly serve different versions mid-rollout; each response
  /// reports the version that decoded it). Throws std::invalid_argument
  /// when the registry has no published version.
  Router(std::shared_ptr<ModelRegistry> registry, RouterConfig config);
  ~Router();
  Router(const Router&) = delete;
  Router& operator=(const Router&) = delete;

  /// Place the request on the least-loaded replica, or shed it (kRejected
  /// with Response::retry_after_ms set) under the overload policy. Throws
  /// std::invalid_argument for malformed input, like
  /// RecommendService::submit.
  /// `trace_id` 0 originates a fresh correlation id; a nonzero id (e.g.
  /// from a remote client's request frame) is continued through the
  /// placed replica's serve.* trace events — see RecommendService::submit.
  [[nodiscard]] std::future<Response> submit(
      std::vector<double> insight, int beam_width,
      std::chrono::milliseconds deadline = kNoDeadline,
      std::uint64_t trace_id = 0);

  /// Blocking submit().get().
  [[nodiscard]] Response recommend(
      std::vector<double> insight, int beam_width,
      std::chrono::milliseconds deadline = kNoDeadline);

  /// Stop every replica (drain, then join). Idempotent.
  void stop();

  [[nodiscard]] RouterCounters counters() const;
  [[nodiscard]] int replicas() const noexcept {
    return static_cast<int>(fleet_.size());
  }
  /// Direct replica access for tests (pause/resume, counters).
  [[nodiscard]] RecommendService& replica(int i) {
    return *fleet_.at(static_cast<std::size_t>(i));
  }
  [[nodiscard]] const RouterConfig& config() const noexcept {
    return config_;
  }
  /// Aggregate queued / aggregate queue capacity, in [0, 1].
  [[nodiscard]] double utilization() const;
  /// Merge of every replica's full-history latency sketch: the fleet tail
  /// distribution (cross-replica p99/p99.9 with relative-error bounds).
  [[nodiscard]] obs::QuantileSketch fleet_latency_sketch() const;
  /// Estimated milliseconds to drain the current backlog: fleet backlog
  /// divided by the sum of the replicas' service rates, each replica's
  /// rate being finished() / busy_ms() (kColdStartMsPerRequest until it
  /// has measured one). The Retry-After hint on shed responses and the
  /// wait that deadline-slack admission compares against.
  [[nodiscard]] double estimated_drain_ms() const;
  /// The registry behind a registry-backed fleet (nullptr for the
  /// fixed-model constructor).
  [[nodiscard]] const std::shared_ptr<ModelRegistry>& registry()
      const noexcept {
    return registry_;
  }

 private:
  /// Both public constructors delegate here; exactly one of `fixed` /
  /// `registry` is set.
  Router(RouterConfig config, const align::RecipeModel* fixed,
         std::shared_ptr<ModelRegistry> registry);

  /// A kRejected response, resolved already, with the retry hint.
  [[nodiscard]] std::future<Response> shed(double retry_after_ms,
                                           std::uint64_t trace_id);
  /// Replica indices sorted by ascending backlog.
  [[nodiscard]] std::vector<int> placement_order() const;

  std::shared_ptr<ModelRegistry> registry_;  // null = fixed model
  RouterConfig config_;
  std::size_t insight_dim_ = 0;
  std::vector<std::unique_ptr<RecommendService>> fleet_;
  std::atomic<std::uint64_t> routed_{0};
  std::atomic<std::uint64_t> shed_{0};
  std::atomic<bool> stopped_{false};
};

}  // namespace vpr::serve
