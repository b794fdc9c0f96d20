#pragma once
// Long-lived recommendation service with cross-request micro-batching.
//
// Callers submit (insight, beam width, deadline) and get a future. A single
// batcher thread owns all decode state: each tick it admits queued requests
// (up to max_inflight), gathers the pending beam-lane queries of every
// in-flight BeamDecoder into one std::vector<BatchStep>, runs them as one
// batched forward (DecodeSession::step_batch stacks the lane rows into
// blocked matmuls), then scatters the probability slices back into each
// decoder's apply(). Lanes from different requests therefore share the
// per-step weight traffic that a serial per-request decode pays once per
// lane.
//
// Because every kernel accumulates each output element in one ascending
// chain regardless of batch rows, a batched response is bitwise identical
// to running beam_search() alone for the same insight — see
// docs/serving.md for the full argument.
//
// Deadline semantics: a request's deadline is checked at admission and
// between ticks; once decoding of a tick's batch has started it runs to
// the end of the tick. Expired requests complete with kTimedOut. A full
// admission queue rejects immediately with kRejected (backpressure is
// surfaced to the caller, never buffered unboundedly).
//
// Hot swap: a service constructed over a serve::ModelRegistry polls the
// registry's current version at every batch boundary and swaps RCU-style
// — the batcher adopts the new shared_ptr, the arena re-targets future
// admissions, and every in-flight request keeps a pin on the version it
// was admitted under, so it finishes bitwise on the weights it started
// with even if several publishes land mid-decode. Retired versions are
// destroyed once the registry GC window passes them *and* their last
// pinned request drains. See docs/model_registry.md.

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstddef>
#include <cstdint>
#include <future>
#include <memory>
#include <mutex>
#include <span>
#include <thread>
#include <vector>

#include "align/beam.h"
#include "align/recipe_model.h"
#include "obs/quantile.h"
#include "serve/arena.h"
#include "util/json.h"
#include "util/mpmc_queue.h"

namespace vpr::serve {

class ModelRegistry;
class ModelVersion;

enum class Status {
  kOk = 0,
  kRejected,    // admission queue full, or shed by the router
  kTimedOut,    // deadline expired before completion
  kShutdown,    // submitted after stop()
  kBadRequest,  // malformed remote request (wire server only; in-process
                // callers get std::invalid_argument instead)
};

[[nodiscard]] const char* to_string(Status status) noexcept;

struct ServiceConfig {
  /// Requests decoded concurrently.
  int max_inflight = 8;
  /// Largest admissible per-request beam width.
  int max_beam_width = 8;
  /// Admission queue bound; pushes beyond it reject with kRejected.
  std::size_t queue_capacity = 256;
};

struct Response {
  Status status = Status::kShutdown;
  /// Top-K candidates, best first (empty unless status == kOk).
  std::vector<align::BeamCandidate> candidates;
  double queue_ms = 0.0;  // submit -> admission
  double total_ms = 0.0;  // submit -> completion
  /// Correlation id assigned at submit(); every trace event this request
  /// produced (serve.request / serve.admit / serve.batch / end) carries it.
  std::uint64_t trace_id = 0;
  /// For kRejected only: the router's Retry-After-style hint — how long a
  /// client should back off before retrying, from estimated drain time.
  /// 0 when not rejected (or when no estimate is available).
  double retry_after_ms = 0.0;
  /// Registry version this request decoded on (the version pinned at
  /// admission, not whatever was current at completion). 0 for services
  /// on a fixed model or for requests refused before admission.
  std::uint64_t model_version = 0;
};

/// Snapshot of one service instance's load counters. The monotone event
/// counts (submitted .. batched_lanes) are instance-local atomics — with
/// several replicas in one process (serve::Router) each replica reports
/// only its own traffic — while the process still exports one aggregate
/// monotone serve.* series through obs::MetricsRegistry.
struct ServiceCounters {
  /// Requests accepted into the admission queue (excludes rejected and
  /// shutdown-refused submissions).
  std::uint64_t submitted = 0;
  std::uint64_t completed = 0;
  std::uint64_t rejected = 0;
  /// Submissions refused because the service was stopped or stopping.
  std::uint64_t shutdown_refused = 0;
  std::uint64_t timed_out = 0;
  std::uint64_t ticks = 0;
  std::uint64_t batched_lanes = 0;  // sum of batch sizes over all ticks
  std::uint64_t peak_inflight = 0;
  std::uint64_t queue_depth = 0;  // at snapshot time
  /// Mean lanes per batched forward (batch occupancy).
  double mean_batch_lanes = 0.0;
  /// kOk latency percentiles over the full completion history, read from
  /// latency_sketch() (obs::QuantileSketch, 1% relative error; memory
  /// grows with the log of the latency range, not the request count).
  double p50_latency_ms = 0.0;
  double p95_latency_ms = 0.0;
  double p99_latency_ms = 0.0;
  double p999_latency_ms = 0.0;
  /// Completed requests per second, first submit -> last completion.
  double qps = 0.0;
  long sessions_created = 0;
  long session_reuses = 0;
  /// Hot-swap telemetry (0 on fixed-model services): version currently
  /// serving new admissions, swaps adopted, and publish->adoption
  /// latency over those swaps.
  std::uint64_t model_version = 0;
  std::uint64_t swaps = 0;
  double mean_swap_ms = 0.0;
  double max_swap_ms = 0.0;

  [[nodiscard]] util::Json to_json() const;
};

class RecommendService {
 public:
  using Clock = std::chrono::steady_clock;
  /// Deadline value meaning "no deadline".
  static constexpr std::chrono::milliseconds kNoDeadline{0};

  explicit RecommendService(const align::RecipeModel& model,
                            ServiceConfig config = {});
  /// Registry-backed service: starts on registry->current() and hot-swaps
  /// to each newly published version at a batch boundary (in-flight
  /// requests finish on their pinned version). Throws
  /// std::invalid_argument when the registry has no published version.
  explicit RecommendService(std::shared_ptr<ModelRegistry> registry,
                            ServiceConfig config = {});
  ~RecommendService();
  RecommendService(const RecommendService&) = delete;
  RecommendService& operator=(const RecommendService&) = delete;

  /// Enqueue a request. The future resolves with kOk and the candidates,
  /// or with kRejected (queue full) / kTimedOut (deadline expired) /
  /// kShutdown (service stopped). Throws std::invalid_argument for a bad
  /// insight dimension or beam width — malformed input is a caller bug,
  /// not a load condition. `trace_id` 0 (the in-process default) makes the
  /// service originate a correlation id; a nonzero id — e.g. one a remote
  /// client minted and sent over the wire — is continued instead, so the
  /// request's serve.* trace events line up with the client's own span in
  /// a merged cross-process trace.
  [[nodiscard]] std::future<Response> submit(
      std::vector<double> insight, int beam_width,
      std::chrono::milliseconds deadline = kNoDeadline,
      std::uint64_t trace_id = 0);

  /// Blocking submit().get().
  [[nodiscard]] Response recommend(
      std::vector<double> insight, int beam_width,
      std::chrono::milliseconds deadline = kNoDeadline);

  /// Hold the batcher before its next tick (deterministic backpressure /
  /// deadline tests). Queued requests stay queued; deadlines keep running.
  void pause();
  void resume();

  /// Drain: close admission, finish everything queued and in flight, join
  /// the batcher. Idempotent; also called by the destructor. Requests
  /// submitted after stop() resolve immediately with kShutdown.
  void stop();

  [[nodiscard]] ServiceCounters counters() const;
  [[nodiscard]] const ServiceConfig& config() const noexcept {
    return config_;
  }

  /// Copy of the full-history latency sketch (kOk completions). Mergeable
  /// with other replicas' sketches — serve::Router::counters() does
  /// exactly that for fleet p99/p99.9.
  [[nodiscard]] obs::QuantileSketch latency_sketch() const;

  /// Cheap load probes for an external placer (serve::Router): requests
  /// waiting in the admission queue and requests currently decoding.
  [[nodiscard]] std::size_t queue_depth() const { return queue_.size(); }
  [[nodiscard]] int inflight() const noexcept {
    return inflight_now_.load(std::memory_order_relaxed);
  }
  /// Completions since construction (all statuses).
  [[nodiscard]] std::uint64_t finished() const noexcept {
    return finished_.load(std::memory_order_relaxed);
  }
  /// Milliseconds the batcher has spent admitting and decoding, waits
  /// excluded. busy_ms() / finished() is this replica's measured service
  /// time per request. A tick's time is added before the requests it
  /// decoded to completion are answered, so a kOk response is already
  /// accounted for when its future resolves.
  [[nodiscard]] double busy_ms() const noexcept {
    return static_cast<double>(busy_ns_.load(std::memory_order_relaxed)) *
           1e-6;
  }

  /// Version serving new admissions (0 on a fixed-model service).
  [[nodiscard]] std::uint64_t model_version() const noexcept {
    return active_version_.load(std::memory_order_relaxed);
  }
  /// Swaps adopted by the batcher so far.
  [[nodiscard]] std::uint64_t swaps() const noexcept {
    return n_swaps_.load(std::memory_order_relaxed);
  }

 private:
  struct Request {
    std::vector<double> insight;
    int beam_width = 0;
    std::uint64_t trace_id = 0;
    Clock::time_point submitted_at{};
    Clock::time_point deadline{};  // time_point::max() == no deadline
    std::promise<Response> promise;
  };
  struct Inflight {
    Request request;
    align::DecodeSession* session = nullptr;
    std::unique_ptr<align::BeamDecoder> decoder;
    Clock::time_point admitted_at{};
    /// Version pinned at admission: keeps the weights alive until this
    /// request drains, whatever the registry publishes meanwhile.
    std::shared_ptr<const ModelVersion> pin;
  };

  /// Both public constructors delegate here; exactly one of `fixed` /
  /// `registry` is set.
  RecommendService(ServiceConfig config, const align::RecipeModel* fixed,
                   std::shared_ptr<ModelRegistry> registry);

  void batcher_loop();
  /// Adopt the registry's current version if it moved (batcher thread,
  /// batch boundaries only). No-op on fixed-model services.
  void maybe_swap();
  void admit(Request&& request, std::vector<Inflight>& inflight);
  void forward_batch(std::span<const align::BatchStep> steps, double* probs);
  /// Add the time since `since` to busy_ns_ (batcher thread).
  void add_busy(Clock::time_point since);
  void finish(Inflight& flight, Status status);
  static void respond(Request& request, Status status,
                      std::vector<align::BeamCandidate> candidates,
                      Clock::time_point admitted_at,
                      std::uint64_t model_version = 0);

  std::shared_ptr<ModelRegistry> registry_;  // null = fixed model
  /// Version serving new admissions. Owned by the batcher thread after
  /// construction; declared before arena_ so the arena can bind to its
  /// model in the initializer list.
  std::shared_ptr<const ModelVersion> active_;
  const align::RecipeModel* model_;
  ServiceConfig config_;
  /// Insight dimension, immutable copy for submit-side validation (the
  /// live model pointer belongs to the batcher once swaps can happen).
  int insight_dim_;
  SessionArena arena_;
  util::MpmcQueue<Request> queue_;

  mutable std::mutex pause_mutex_;
  std::condition_variable pause_cv_;
  bool paused_ = false;

  // Instance-local observability state. Every event also feeds the
  // process-wide registry (serve.* series), but counters() reads these
  // atomics so each replica in a multi-replica fleet reports its own
  // traffic rather than the process aggregate.
  std::atomic<std::uint64_t> n_submitted_{0};
  std::atomic<std::uint64_t> n_completed_{0};
  std::atomic<std::uint64_t> n_rejected_{0};
  std::atomic<std::uint64_t> n_shutdown_refused_{0};
  std::atomic<std::uint64_t> n_timed_out_{0};
  std::atomic<std::uint64_t> n_ticks_{0};
  std::atomic<std::uint64_t> n_batched_lanes_{0};
  mutable std::mutex counters_mutex_;
  /// Full-history mergeable latency sketch (guarded by counters_mutex_):
  /// one observe per kOk completion, never windowed. Backs the
  /// counters() percentiles.
  obs::QuantileSketch latency_sketch_;
  std::uint64_t peak_inflight_ = 0;
  Clock::time_point first_submit_{};
  Clock::time_point last_complete_{};
  bool any_submitted_ = false;
  std::atomic<int> inflight_now_{0};
  std::atomic<std::uint64_t> finished_{0};
  std::atomic<std::uint64_t> busy_ns_{0};
  std::atomic<std::uint64_t> active_version_{0};
  std::atomic<std::uint64_t> n_swaps_{0};
  /// Publish->adoption latency accumulators, guarded by counters_mutex_.
  double swap_ms_sum_ = 0.0;
  double swap_ms_max_ = 0.0;

  bool stopped_ = false;  // guarded by pause_mutex_
  std::thread batcher_;
};

}  // namespace vpr::serve
