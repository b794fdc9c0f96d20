#include "serve/router.h"

#include <algorithm>
#include <numeric>
#include <stdexcept>
#include <utility>

#include "obs/metrics.h"
#include "obs/trace.h"
#include "serve/registry.h"

namespace vpr::serve {

namespace {

/// Router-level process-wide series (the per-replica serve.* counters are
/// fed by the replicas themselves).
struct RouterMetrics {
  obs::Counter& routed;
  obs::Counter& shed;

  static RouterMetrics& get() {
    static auto& r = obs::MetricsRegistry::instance();
    static RouterMetrics m{
        r.counter("serve.routed", "requests placed on a replica"),
        r.counter("serve.shed",
                  "requests refused by the overload policy (fast kRejected "
                  "with a retry_after_ms hint)"),
    };
    return m;
  }
};

/// Requests queued or decoding on one replica.
std::size_t backlog(const RecommendService& replica) {
  return replica.queue_depth() +
         static_cast<std::size_t>(std::max(0, replica.inflight()));
}

/// The replica's measured service time per request.
double ms_per_request(const RecommendService& replica) {
  const std::uint64_t finished = replica.finished();
  const double busy_ms = replica.busy_ms();
  return finished > 0 && busy_ms > 0.0
             ? busy_ms / static_cast<double>(finished)
             : Router::kColdStartMsPerRequest;
}

}  // namespace

std::uint64_t RouterCounters::total_completed() const {
  return std::accumulate(replica.begin(), replica.end(), std::uint64_t{0},
                         [](std::uint64_t acc, const ServiceCounters& c) {
                           return acc + c.completed;
                         });
}

std::uint64_t RouterCounters::total_rejected() const {
  return std::accumulate(replica.begin(), replica.end(), std::uint64_t{0},
                         [](std::uint64_t acc, const ServiceCounters& c) {
                           return acc + c.rejected;
                         });
}

util::Json RouterCounters::to_json() const {
  util::Json j = util::Json::object();
  j["routed"] = static_cast<double>(routed);
  j["shed"] = static_cast<double>(shed);
  j["fleet_p99_ms"] = fleet_p99_ms;
  j["fleet_p999_ms"] = fleet_p999_ms;
  j["fleet_latency_count"] = static_cast<double>(fleet_latency_count);
  util::Json arr = util::Json::array();
  for (const ServiceCounters& c : replica) arr.push_back(c.to_json());
  j["replicas"] = std::move(arr);
  return j;
}

Router::Router(const align::RecipeModel& model, RouterConfig config)
    : Router(config, &model, nullptr) {}

Router::Router(std::shared_ptr<ModelRegistry> registry, RouterConfig config)
    : Router(config, nullptr, std::move(registry)) {}

Router::Router(RouterConfig config, const align::RecipeModel* fixed,
               std::shared_ptr<ModelRegistry> registry)
    : registry_(std::move(registry)),
      config_(config),
      insight_dim_(static_cast<std::size_t>(
          (fixed != nullptr ? fixed->config() : registry_->model_config())
              .insight_dim)) {
  if (config_.replicas < 1) {
    throw std::invalid_argument("Router: replicas < 1");
  }
  fleet_.reserve(static_cast<std::size_t>(config_.replicas));
  for (int i = 0; i < config_.replicas; ++i) {
    fleet_.push_back(
        fixed != nullptr
            ? std::make_unique<RecommendService>(*fixed, config_.replica)
            : std::make_unique<RecommendService>(registry_, config_.replica));
  }
}

Router::~Router() { stop(); }

double Router::utilization() const {
  const double capacity =
      static_cast<double>(fleet_.size()) *
      static_cast<double>(config_.replica.queue_capacity);
  std::size_t queued = 0;
  for (const auto& r : fleet_) queued += r->queue_depth();
  return capacity > 0.0 ? static_cast<double>(queued) / capacity : 1.0;
}

double Router::estimated_drain_ms() const {
  std::size_t total = 0;
  double rate = 0.0;  // requests per millisecond, fleet-wide
  for (const auto& r : fleet_) {
    total += backlog(*r);
    rate += 1.0 / ms_per_request(*r);
  }
  return total == 0 ? 0.0 : static_cast<double>(total) / rate;
}

std::vector<int> Router::placement_order() const {
  std::vector<int> order(fleet_.size());
  std::iota(order.begin(), order.end(), 0);
  std::vector<std::size_t> depth(fleet_.size());
  for (std::size_t i = 0; i < fleet_.size(); ++i) depth[i] = backlog(*fleet_[i]);
  std::stable_sort(order.begin(), order.end(), [&](int a, int b) {
    return depth[static_cast<std::size_t>(a)] <
           depth[static_cast<std::size_t>(b)];
  });
  return order;
}

std::future<Response> Router::shed(double retry_after_ms,
                                   std::uint64_t trace_id) {
  shed_.fetch_add(1, std::memory_order_relaxed);
  RouterMetrics::get().shed.inc();
  Response response;
  response.status = Status::kRejected;
  response.retry_after_ms = std::max(1.0, retry_after_ms);
  response.trace_id =
      trace_id != 0 ? trace_id : obs::TraceRecorder::next_id();
  auto& recorder = obs::TraceRecorder::instance();
  if (recorder.enabled()) {
    recorder.async_instant("serve.shed", "serve", response.trace_id,
                           {{"retry_after_ms", response.retry_after_ms}});
  }
  std::promise<Response> promise;
  promise.set_value(std::move(response));
  return promise.get_future();
}

std::future<Response> Router::submit(std::vector<double> insight,
                                     int beam_width,
                                     std::chrono::milliseconds deadline,
                                     std::uint64_t trace_id) {
  // Validate before placement so malformed input throws (a caller bug)
  // rather than consuming shed/queue budget.
  if (insight.size() != insight_dim_) {
    throw std::invalid_argument("Router::submit: insight dimension mismatch");
  }
  if (beam_width < 1 || beam_width > config_.replica.max_beam_width) {
    throw std::invalid_argument("Router::submit: beam width out of range");
  }

  if (stopped_.load(std::memory_order_acquire)) {
    std::promise<Response> promise;
    Response response;
    response.status = Status::kShutdown;
    promise.set_value(std::move(response));
    return promise.get_future();
  }

  // Overload policy: shed at the utilization threshold, and shed a
  // request whose deadline is shorter than the estimated wait (it would
  // time out in the queue anyway).
  if (utilization() >= kShedUtilization) {
    return shed(estimated_drain_ms(), trace_id);
  }
  if (deadline != kNoDeadline) {
    const double wait_ms = estimated_drain_ms();
    if (static_cast<double>(deadline.count()) < wait_ms) {
      return shed(wait_ms, trace_id);
    }
  }

  // Smallest backlog first, falling through to the next replica when a
  // queue fills between the backlog read and the push.
  for (const int idx : placement_order()) {
    RecommendService& r = *fleet_[static_cast<std::size_t>(idx)];
    if (r.queue_depth() >= config_.replica.queue_capacity) continue;
    auto future = r.submit(std::move(insight), beam_width, deadline, trace_id);
    routed_.fetch_add(1, std::memory_order_relaxed);
    RouterMetrics::get().routed.inc();
    return future;
  }

  // Every queue is full: shed (the alternative is unbounded buffering,
  // which the serve layer never does).
  return shed(estimated_drain_ms(), trace_id);
}

obs::QuantileSketch Router::fleet_latency_sketch() const {
  obs::QuantileSketch fleet;
  for (const auto& r : fleet_) fleet.merge(r->latency_sketch());
  return fleet;
}

Response Router::recommend(std::vector<double> insight, int beam_width,
                           std::chrono::milliseconds deadline) {
  return submit(std::move(insight), beam_width, deadline).get();
}

void Router::stop() {
  stopped_.store(true, std::memory_order_release);
  for (const auto& r : fleet_) r->stop();
}

RouterCounters Router::counters() const {
  RouterCounters c;
  c.routed = routed_.load(std::memory_order_relaxed);
  c.shed = shed_.load(std::memory_order_relaxed);
  c.replica.reserve(fleet_.size());
  for (const auto& r : fleet_) c.replica.push_back(r->counters());
  const obs::QuantileSketch fleet = fleet_latency_sketch();
  if (fleet.count() > 0) {
    c.fleet_p99_ms = fleet.quantile(0.99);
    c.fleet_p999_ms = fleet.quantile(0.999);
    c.fleet_latency_count = fleet.count();
  }
  return c;
}

}  // namespace vpr::serve
