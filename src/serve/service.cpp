#include "serve/service.h"

#include <algorithm>
#include <stdexcept>
#include <utility>

#include "obs/metrics.h"
#include "obs/trace.h"
#include "serve/registry.h"

namespace vpr::serve {

namespace {

double ms_between(RecommendService::Clock::time_point from,
                  RecommendService::Clock::time_point to) {
  return std::chrono::duration<double, std::milli>(to - from).count();
}

/// The process-wide serve.* series every RecommendService feeds. Counter
/// updates are relaxed atomic RMWs; each "count then fulfil the promise"
/// pair still guarantees the caller sees its own outcome, because the
/// fetch_add is sequenced before promise::set_value and future::get
/// synchronizes with it.
struct ServeMetrics {
  obs::Counter& submitted;
  obs::Counter& completed;
  obs::Counter& rejected;
  obs::Counter& shutdown_refused;
  obs::Counter& timed_out;
  obs::Counter& ticks;
  obs::Counter& batched_lanes;
  obs::Summary& latency_ms;
  obs::Counter& swaps;
  obs::Summary& swap_ms;

  static ServeMetrics& get() {
    static auto& r = obs::MetricsRegistry::instance();
    static ServeMetrics m{
        r.counter("serve.submitted",
                  "requests accepted into the admission queue"),
        r.counter("serve.completed", "requests finished with kOk"),
        r.counter("serve.rejected", "requests rejected (queue full)"),
        r.counter("serve.shutdown_refused",
                  "submissions refused because the service was stopping"),
        r.counter("serve.timed_out", "requests expired before completion"),
        r.counter("serve.ticks", "batched forward passes"),
        r.counter("serve.batched_lanes", "sum of batch sizes over ticks"),
        r.summary("serve.latency_ms",
                  "submit -> completion wall milliseconds (kOk only)"),
        r.counter("serve.swaps", "model-version hot swaps adopted"),
        r.summary("serve.swap_ms",
                  "publish -> batcher adoption wall milliseconds"),
    };
    return m;
  }
};

/// Registry-backed construction requires a published version: a service
/// cannot admit traffic before any weights exist.
const align::RecipeModel* checked_model(
    const std::shared_ptr<const ModelVersion>& active) {
  if (active == nullptr) {
    throw std::invalid_argument(
        "RecommendService: registry has no published version");
  }
  return &active->model();
}

}  // namespace

const char* to_string(Status status) noexcept {
  switch (status) {
    case Status::kOk:
      return "ok";
    case Status::kRejected:
      return "rejected";
    case Status::kTimedOut:
      return "timed_out";
    case Status::kShutdown:
      return "shutdown";
    case Status::kBadRequest:
      return "bad_request";
  }
  return "unknown";
}

util::Json ServiceCounters::to_json() const {
  util::Json j = util::Json::object();
  j["submitted"] = static_cast<double>(submitted);
  j["completed"] = static_cast<double>(completed);
  j["rejected"] = static_cast<double>(rejected);
  j["shutdown_refused"] = static_cast<double>(shutdown_refused);
  j["timed_out"] = static_cast<double>(timed_out);
  j["ticks"] = static_cast<double>(ticks);
  j["batched_lanes"] = static_cast<double>(batched_lanes);
  j["mean_batch_lanes"] = mean_batch_lanes;
  j["peak_inflight"] = static_cast<double>(peak_inflight);
  j["queue_depth"] = static_cast<double>(queue_depth);
  j["p50_latency_ms"] = p50_latency_ms;
  j["p95_latency_ms"] = p95_latency_ms;
  j["p99_latency_ms"] = p99_latency_ms;
  j["p999_latency_ms"] = p999_latency_ms;
  j["qps"] = qps;
  j["sessions_created"] = static_cast<double>(sessions_created);
  j["session_reuses"] = static_cast<double>(session_reuses);
  j["model_version"] = static_cast<double>(model_version);
  j["swaps"] = static_cast<double>(swaps);
  j["mean_swap_ms"] = mean_swap_ms;
  j["max_swap_ms"] = max_swap_ms;
  return j;
}

RecommendService::RecommendService(const align::RecipeModel& model,
                                   ServiceConfig config)
    : RecommendService(config, &model, nullptr) {}

RecommendService::RecommendService(std::shared_ptr<ModelRegistry> registry,
                                   ServiceConfig config)
    : RecommendService(config, nullptr, std::move(registry)) {}

RecommendService::RecommendService(ServiceConfig config,
                                   const align::RecipeModel* fixed,
                                   std::shared_ptr<ModelRegistry> registry)
    : registry_(std::move(registry)),
      active_(registry_ != nullptr ? registry_->current() : nullptr),
      model_(fixed != nullptr ? fixed : checked_model(active_)),
      config_(config),
      insight_dim_(model_->config().insight_dim),
      arena_(*model_, 2 * std::max(1, config.max_beam_width)),
      queue_(config.queue_capacity) {
  if (config_.max_inflight < 1) {
    throw std::invalid_argument("RecommendService: max_inflight < 1");
  }
  if (config_.max_beam_width < 1) {
    throw std::invalid_argument("RecommendService: max_beam_width < 1");
  }
  if (config_.queue_capacity < 1) {
    throw std::invalid_argument("RecommendService: queue_capacity < 1");
  }
  if (active_ != nullptr) {
    active_version_.store(active_->version(), std::memory_order_relaxed);
  }
  batcher_ = std::thread([this] { batcher_loop(); });
}

RecommendService::~RecommendService() { stop(); }

std::future<Response> RecommendService::submit(
    std::vector<double> insight, int beam_width,
    std::chrono::milliseconds deadline, std::uint64_t trace_id) {
  const auto dim = static_cast<std::size_t>(insight_dim_);
  if (insight.size() != dim) {
    throw std::invalid_argument(
        "RecommendService::submit: insight dimension mismatch");
  }
  if (beam_width < 1 || beam_width > config_.max_beam_width) {
    throw std::invalid_argument(
        "RecommendService::submit: beam width out of range");
  }

  Request request;
  request.insight = std::move(insight);
  request.beam_width = beam_width;
  // Continue a caller-provided (cross-process) trace id; originate one
  // only for callers that have none.
  request.trace_id =
      trace_id != 0 ? trace_id : obs::TraceRecorder::next_id();
  request.submitted_at = Clock::now();
  request.deadline = deadline == kNoDeadline
                         ? Clock::time_point::max()
                         : request.submitted_at + deadline;
  std::future<Response> future = request.promise.get_future();

  auto& recorder = obs::TraceRecorder::instance();
  if (recorder.enabled()) {
    recorder.async_begin(
        "serve.request", "serve", request.trace_id,
        {{"beam_width", beam_width},
         {"deadline_ms",
          deadline == kNoDeadline ? std::int64_t{0} : deadline.count()}});
  }

  const auto submitted_at = request.submitted_at;  // survives the move
  // The push result is decided under the queue's single lock acquisition,
  // so a submit racing with stop() sees exactly one of kPushed (it will be
  // drained and completed), kClosed (kShutdown), or kFull (kRejected —
  // genuine backpressure). The old boolean try_push collapsed the last two
  // and could misreport a shutdown-refused request as rejected.
  switch (queue_.push(std::move(request))) {
    case util::PushResult::kPushed: {
      // Counted only on acceptance: serve.submitted means "admitted into
      // the queue", so completed + timed_out never exceeds it.
      ServeMetrics::get().submitted.inc();
      n_submitted_.fetch_add(1, std::memory_order_relaxed);
      std::lock_guard lock(counters_mutex_);
      if (!any_submitted_) {
        any_submitted_ = true;
        first_submit_ = submitted_at;
      }
      break;
    }
    case util::PushResult::kFull:
      // A failed push leaves `request` (and its promise) untouched.
      // Counter before promise, as in admit()/finish().
      ServeMetrics::get().rejected.inc();
      n_rejected_.fetch_add(1, std::memory_order_relaxed);
      respond(request, Status::kRejected, {}, {});
      break;
    case util::PushResult::kClosed:
      ServeMetrics::get().shutdown_refused.inc();
      n_shutdown_refused_.fetch_add(1, std::memory_order_relaxed);
      respond(request, Status::kShutdown, {}, {});
      break;
  }
  return future;
}

Response RecommendService::recommend(std::vector<double> insight,
                                     int beam_width,
                                     std::chrono::milliseconds deadline) {
  return submit(std::move(insight), beam_width, deadline).get();
}

void RecommendService::pause() {
  std::lock_guard lock(pause_mutex_);
  paused_ = true;
}

void RecommendService::resume() {
  {
    std::lock_guard lock(pause_mutex_);
    paused_ = false;
  }
  pause_cv_.notify_all();
}

void RecommendService::stop() {
  bool join = false;
  {
    std::lock_guard lock(pause_mutex_);
    if (!stopped_) {
      stopped_ = true;
      paused_ = false;
      join = true;
    }
  }
  if (!join) return;
  pause_cv_.notify_all();
  queue_.close();
  if (batcher_.joinable()) batcher_.join();
}

obs::QuantileSketch RecommendService::latency_sketch() const {
  std::lock_guard lock(counters_mutex_);
  return latency_sketch_;
}

ServiceCounters RecommendService::counters() const {
  std::lock_guard lock(counters_mutex_);
  ServiceCounters snapshot;
  snapshot.submitted = n_submitted_.load(std::memory_order_relaxed);
  snapshot.completed = n_completed_.load(std::memory_order_relaxed);
  snapshot.rejected = n_rejected_.load(std::memory_order_relaxed);
  snapshot.shutdown_refused =
      n_shutdown_refused_.load(std::memory_order_relaxed);
  snapshot.timed_out = n_timed_out_.load(std::memory_order_relaxed);
  snapshot.ticks = n_ticks_.load(std::memory_order_relaxed);
  snapshot.batched_lanes = n_batched_lanes_.load(std::memory_order_relaxed);
  snapshot.peak_inflight = peak_inflight_;
  snapshot.sessions_created = arena_.created();
  snapshot.session_reuses = arena_.reuses();
  snapshot.queue_depth = queue_.size();
  snapshot.mean_batch_lanes =
      snapshot.ticks > 0 ? static_cast<double>(snapshot.batched_lanes) /
                               static_cast<double>(snapshot.ticks)
                         : 0.0;
  snapshot.p50_latency_ms = latency_sketch_.quantile(0.50);
  snapshot.p95_latency_ms = latency_sketch_.quantile(0.95);
  snapshot.p99_latency_ms = latency_sketch_.quantile(0.99);
  snapshot.p999_latency_ms = latency_sketch_.quantile(0.999);
  if (snapshot.completed > 0 && last_complete_ > first_submit_) {
    snapshot.qps = static_cast<double>(snapshot.completed) /
                   std::chrono::duration<double>(last_complete_ - first_submit_)
                       .count();
  }
  snapshot.model_version = active_version_.load(std::memory_order_relaxed);
  snapshot.swaps = n_swaps_.load(std::memory_order_relaxed);
  if (snapshot.swaps > 0) {
    snapshot.mean_swap_ms =
        swap_ms_sum_ / static_cast<double>(snapshot.swaps);
    snapshot.max_swap_ms = swap_ms_max_;
  }
  return snapshot;
}

void RecommendService::respond(Request& request, Status status,
                               std::vector<align::BeamCandidate> candidates,
                               Clock::time_point admitted_at,
                               std::uint64_t model_version) {
  const auto now = Clock::now();
  Response response;
  response.status = status;
  response.candidates = std::move(candidates);
  response.trace_id = request.trace_id;
  response.model_version = model_version;
  response.total_ms = ms_between(request.submitted_at, now);
  response.queue_ms = admitted_at == Clock::time_point{}
                          ? response.total_ms
                          : ms_between(request.submitted_at, admitted_at);
  auto& recorder = obs::TraceRecorder::instance();
  if (recorder.enabled()) {
    recorder.async_end("serve.finish", "serve", request.trace_id,
                       {{"status", to_string(status)}});
  }
  request.promise.set_value(std::move(response));
}

void RecommendService::admit(Request&& request,
                             std::vector<Inflight>& inflight) {
  const auto now = Clock::now();
  // Counters update before respond() fulfills the promise, so a caller
  // that .get()s the response and immediately snapshots counters() sees
  // its own outcome reflected.
  if (now >= request.deadline) {
    ServeMetrics::get().timed_out.inc();
    n_timed_out_.fetch_add(1, std::memory_order_relaxed);
    finished_.fetch_add(1, std::memory_order_relaxed);
    respond(request, Status::kTimedOut, {}, now);
    return;
  }
  align::DecodeSession* session = arena_.acquire(request.insight);
  auto& recorder = obs::TraceRecorder::instance();
  if (recorder.enabled()) {
    recorder.async_instant(
        "serve.admit", "serve", request.trace_id,
        {{"queue_ms", ms_between(request.submitted_at, now)}});
  }
  Inflight flight;
  flight.request = std::move(request);
  flight.session = session;
  flight.decoder = std::make_unique<align::BeamDecoder>(
      *session, flight.request.beam_width);
  flight.admitted_at = now;
  // Pin the version this request decodes on: even if the batcher swaps
  // next tick and the registry GCs, the weights outlive this flight.
  flight.pin = active_;
  inflight.push_back(std::move(flight));
  inflight_now_.store(static_cast<int>(inflight.size()),
                      std::memory_order_relaxed);
  std::lock_guard lock(counters_mutex_);
  peak_inflight_ = std::max<std::uint64_t>(peak_inflight_, inflight.size());
}

void RecommendService::finish(Inflight& flight, Status status) {
  std::vector<align::BeamCandidate> candidates;
  if (status == Status::kOk) candidates = flight.decoder->result();
  const std::uint64_t served_version =
      flight.pin != nullptr ? flight.pin->version() : 0;
  // Latency is measured before the registry sees the outcome, so the SLO
  // engine judges the same number the client will be told.
  const auto done = Clock::now();
  const double latency = ms_between(flight.request.submitted_at, done);
  if (status == Status::kOk && registry_ != nullptr && flight.pin != nullptr &&
      !candidates.empty()) {
    registry_->record_outcome(served_version, candidates.front().log_prob,
                              latency);
  }

  // Update the counters before fulfilling the promise: a caller that
  // .get()s the final response and immediately snapshots counters() must
  // see its own completion reflected.
  if (status == Status::kOk) {
    ServeMetrics& metrics = ServeMetrics::get();
    metrics.completed.inc();
    n_completed_.fetch_add(1, std::memory_order_relaxed);
    metrics.latency_ms.observe(latency);
    std::lock_guard lock(counters_mutex_);
    last_complete_ = done;
    latency_sketch_.observe(latency);
  } else if (status == Status::kTimedOut) {
    ServeMetrics::get().timed_out.inc();
    n_timed_out_.fetch_add(1, std::memory_order_relaxed);
  }
  finished_.fetch_add(1, std::memory_order_relaxed);

  respond(flight.request, status, std::move(candidates), flight.admitted_at,
          served_version);
  arena_.release(flight.session);
  flight.session = nullptr;
  // The pin drops with the Inflight; a retired version's last pin makes it
  // GC-eligible on the registry's next publish/gc pass.
}

void RecommendService::maybe_swap() {
  if (registry_ == nullptr) return;
  if (registry_->current_version() ==
      active_version_.load(std::memory_order_relaxed)) {
    return;
  }
  std::shared_ptr<const ModelVersion> next = registry_->current();
  if (next == nullptr || (active_ != nullptr && next == active_)) return;
  VPR_TRACE_SPAN("registry.swap", "serve",
                 obs::TraceArgs{{"version", next->version()}});
  const double adoption_ms = ms_between(next->published_at(), Clock::now());
  active_ = std::move(next);
  model_ = &active_->model();
  arena_.set_model(*model_);
  active_version_.store(active_->version(), std::memory_order_relaxed);
  n_swaps_.fetch_add(1, std::memory_order_relaxed);
  ServeMetrics& metrics = ServeMetrics::get();
  metrics.swaps.inc();
  metrics.swap_ms.observe(adoption_ms);
  std::lock_guard lock(counters_mutex_);
  swap_ms_sum_ += adoption_ms;
  swap_ms_max_ = std::max(swap_ms_max_, adoption_ms);
}

void RecommendService::forward_batch(std::span<const align::BatchStep> steps,
                                     double* probs) {
  align::DecodeSession::step_batch(steps, probs);
  ServeMetrics& metrics = ServeMetrics::get();
  metrics.ticks.inc();
  metrics.batched_lanes.inc(steps.size());
  n_ticks_.fetch_add(1, std::memory_order_relaxed);
  n_batched_lanes_.fetch_add(steps.size(), std::memory_order_relaxed);
}

void RecommendService::add_busy(Clock::time_point since) {
  busy_ns_.fetch_add(
      static_cast<std::uint64_t>(
          std::chrono::duration_cast<std::chrono::nanoseconds>(Clock::now() -
                                                               since)
              .count()),
      std::memory_order_relaxed);
}

void RecommendService::batcher_loop() {
  obs::TraceRecorder::instance().set_thread_name("batcher");
  std::vector<Inflight> inflight;
  std::vector<align::BatchStep> steps;
  std::vector<std::size_t> slice_begin;
  std::vector<std::size_t> group_begin;
  std::vector<double> probs;

  const auto wait_if_paused = [this] {
    std::unique_lock lock(pause_mutex_);
    pause_cv_.wait(lock, [this] { return !paused_; });
  };

  while (true) {
    wait_if_paused();
    auto busy_since = Clock::now();
    // Batch boundary: adopt a newly published version before admitting
    // anything, so every request in this tick's admissions pins it.
    maybe_swap();

    Request request;
    while (static_cast<int>(inflight.size()) < config_.max_inflight &&
           queue_.try_pop(request)) {
      admit(std::move(request), inflight);
    }
    if (inflight.empty()) {
      if (!queue_.pop(request)) break;  // closed and drained
      // Re-check the pause flag so pause() freezes admission too; the
      // request's deadline keeps running while held here.
      wait_if_paused();
      busy_since = Clock::now();  // the blocking pop was a wait, not work
      maybe_swap();
      admit(std::move(request), inflight);
      add_busy(busy_since);
      continue;
    }

    // Expire deadlines between ticks.
    const auto now = Clock::now();
    std::erase_if(inflight, [&](Inflight& flight) {
      if (now < flight.request.deadline) return false;
      finish(flight, Status::kTimedOut);
      return true;
    });
    inflight_now_.store(static_cast<int>(inflight.size()),
                        std::memory_order_relaxed);
    if (inflight.empty()) continue;

    // Gather every in-flight decoder's pending lane queries into one batch.
    steps.clear();
    slice_begin.clear();
    group_begin.clear();
    const ModelVersion* group_pin = nullptr;
    for (const Inflight& flight : inflight) {
      slice_begin.push_back(steps.size());
      // A tick right after a swap can hold lanes pinned to different
      // versions (the old cohort still draining, fresh admissions on the
      // new weights). step_batch requires one model per call, so mark the
      // boundaries; pins are monotone in admission order, so equal pins
      // are always contiguous.
      if (group_begin.empty() || flight.pin.get() != group_pin) {
        group_begin.push_back(steps.size());
        group_pin = flight.pin.get();
      }
      for (const align::BeamDecoder::StepRef& ref :
           flight.decoder->pending()) {
        steps.push_back({flight.session, ref.lane, ref.prev_decision});
      }
    }
    probs.resize(steps.size());
    {
      VPR_TRACE_SPAN("serve.tick", "serve",
                     obs::TraceArgs{{"lanes", steps.size()},
                                    {"inflight", inflight.size()}});
      auto& recorder = obs::TraceRecorder::instance();
      if (recorder.enabled()) {
        // One marker per in-flight request, on its own correlation track.
        for (std::size_t i = 0; i < inflight.size(); ++i) {
          const std::size_t end =
              i + 1 < slice_begin.size() ? slice_begin[i + 1] : steps.size();
          recorder.async_instant(
              "serve.batch", "serve", inflight[i].request.trace_id,
              {{"lanes", end - slice_begin[i]}});
        }
      }
      // One batched forward per same-version group (one group outside a
      // swap window, so the common case is a single full-width call).
      for (std::size_t g = 0; g < group_begin.size(); ++g) {
        const std::size_t begin = group_begin[g];
        const std::size_t end =
            g + 1 < group_begin.size() ? group_begin[g + 1] : steps.size();
        if (end > begin) {
          forward_batch(
              std::span<const align::BatchStep>(steps).subspan(begin,
                                                               end - begin),
              probs.data() + begin);
        }
      }

      // Scatter probability slices back and advance each beam.
      for (std::size_t i = 0; i < inflight.size(); ++i) {
        const std::size_t begin = slice_begin[i];
        const std::size_t end =
            i + 1 < slice_begin.size() ? slice_begin[i + 1] : steps.size();
        inflight[i].decoder->apply(
            std::span<const double>(probs).subspan(begin, end - begin));
      }
    }

    add_busy(busy_since);
    std::erase_if(inflight, [&](Inflight& flight) {
      if (!flight.decoder->done()) return false;
      finish(flight, Status::kOk);
      return true;
    });
    inflight_now_.store(static_cast<int>(inflight.size()),
                        std::memory_order_relaxed);
  }

  // Queue closed and drained; inflight is empty here by construction (the
  // loop only reaches the blocking pop when nothing is in flight).
}

}  // namespace vpr::serve
