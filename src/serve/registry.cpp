#include "serve/registry.h"

#include <algorithm>
#include <filesystem>
#include <stdexcept>
#include <utility>

#include "nn/tensor.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "util/log.h"
#include "util/rng.h"

namespace vpr::serve {

namespace {

/// Process-wide registry.* series (every ModelRegistry instance feeds the
/// same counters; per-instance numbers come from the accessors).
struct RegistryMetrics {
  obs::Counter& published;
  obs::Counter& publish_rejected;
  obs::Counter& gc_collected;
  obs::Gauge& current_version;
  obs::Gauge& resident_versions;

  static RegistryMetrics& get() {
    static auto& r = obs::MetricsRegistry::instance();
    static RegistryMetrics m{
        r.counter("registry.published", "model versions published"),
        r.counter("registry.publish_rejected",
                  "publishes refused (size or checksum mismatch)"),
        r.counter("registry.gc_collected",
                  "retired model versions garbage-collected"),
        r.gauge("registry.current_version", "newest published version id"),
        r.gauge("registry.resident_versions",
                "versions currently held in memory"),
    };
    return m;
  }
};

}  // namespace

ModelVersion::ModelVersion(const align::ModelConfig& config,
                           std::span<const double> state,
                           std::uint64_t version, std::string meta)
    : version_(version),
      meta_(std::move(meta)),
      published_at_(std::chrono::steady_clock::now()) {
  // load_state immediately overwrites every weight, so skip the Gaussian
  // init entirely — on a single-core box a publish competes with the
  // decoding replicas for cycles, and the shell construction is most of
  // a publish's cost.
  util::Rng rng{0x5eedULL};
  nn::DeferParameterInit defer_init;
  model_ = std::make_unique<align::RecipeModel>(config, rng);
  model_->load_state(state);
}

std::uint64_t ModelVersion::checksum() const {
  // state() round-trips bitwise through load_state (tested), so hashing
  // the model's state here equals hashing the published vector.
  std::call_once(checksum_once_,
                 [&] { checksum_ = model::state_checksum(model_->state()); });
  return checksum_;
}

ModelRegistry::ModelRegistry(align::ModelConfig config, RegistryConfig rc)
    : config_(config), registry_config_(std::move(rc)) {
  // One throwaway model gives the architecture's exact parameter count,
  // the size every publish is validated against.
  util::Rng rng{0x5eedULL};
  expected_params_ =
      align::RecipeModel{config_, rng}.parameter_count();
  if (!registry_config_.dir.empty()) {
    std::error_code ec;
    std::filesystem::create_directories(registry_config_.dir, ec);
    if (ec) {
      VPR_LOG(Warn) << "ModelRegistry: cannot create directory "
                    << registry_config_.dir << ": " << ec.message();
    }
    scan_dir();
  }
}

std::shared_ptr<ModelRegistry> ModelRegistry::holding(
    const align::RecipeModel& model) {
  auto registry = std::make_shared<ModelRegistry>(model.config());
  registry->publish(model.state(), "in-memory model");
  return registry;
}

std::uint64_t ModelRegistry::publish(std::span<const double> state,
                                     std::string meta) {
  VPR_TRACE_SPAN("registry.publish", "registry");
  if (state.size() != expected_params_) {
    RegistryMetrics::get().publish_rejected.inc();
    throw std::invalid_argument(
        "ModelRegistry::publish: state size " +
        std::to_string(state.size()) + " does not match architecture (" +
        std::to_string(expected_params_) + " params)");
  }
  // The expensive half of a publish — constructing the version's
  // RecipeModel and writing the snapshot file — runs under the publisher
  // mutex only. `mutex_` is taken twice, briefly: to read the next
  // version id and to install. A publish therefore stalls other
  // publishers, never a decoding replica (whose hot path takes `mutex_`
  // per completed request via record_outcome).
  std::lock_guard publish_lock(publish_mutex_);
  std::uint64_t version = 0;
  {
    std::lock_guard lock(mutex_);
    version = last_version_ + 1;
  }
  auto mv = std::make_shared<const ModelVersion>(config_, state, version,
                                                 std::move(meta));
  if (!registry_config_.dir.empty()) {
    model::Snapshot snapshot;
    snapshot.version = version;
    snapshot.meta = mv->meta();
    snapshot.state.assign(state.begin(), state.end());
    const std::string path = registry_config_.dir + "/" +
                             model::snapshot_filename(version);
    if (!model::save_snapshot_file(snapshot, path)) {
      VPR_LOG(Warn) << "ModelRegistry: cannot persist " << path
                    << " (in-memory publish still effective)";
    }
    dir_seen_.insert(version);
  }
  std::lock_guard lock(mutex_);
  install_locked(std::move(mv));
  gc_locked();
  return version;
}

void ModelRegistry::install_locked(std::shared_ptr<const ModelVersion> mv) {
  const std::uint64_t version = mv->version();
  versions_[version] = mv;
  current_ = mv;
  last_version_ = std::max(last_version_, version);
  ++published_;
  current_version_.store(version, std::memory_order_release);
  RegistryMetrics& metrics = RegistryMetrics::get();
  metrics.published.inc();
  metrics.current_version.set(static_cast<double>(version));
  metrics.resident_versions.set(static_cast<double>(versions_.size()));
}

std::shared_ptr<const ModelVersion> ModelRegistry::current() const {
  std::lock_guard lock(mutex_);
  return current_;
}

std::shared_ptr<const ModelVersion> ModelRegistry::version(
    std::uint64_t v) const {
  std::lock_guard lock(mutex_);
  const auto it = versions_.find(v);
  return it == versions_.end() ? nullptr : it->second;
}

std::vector<std::uint64_t> ModelRegistry::versions() const {
  std::lock_guard lock(mutex_);
  std::vector<std::uint64_t> out;
  out.reserve(versions_.size());
  for (const auto& [v, mv] : versions_) out.push_back(v);
  return out;
}

std::size_t ModelRegistry::size() const {
  std::lock_guard lock(mutex_);
  return versions_.size();
}

std::size_t ModelRegistry::gc() {
  std::lock_guard lock(mutex_);
  return gc_locked();
}

std::size_t ModelRegistry::gc_locked() {
  if (versions_.size() <= registry_config_.keep_latest + 1) return 0;
  // Versions older than the keep window, unpinned, and not current. A
  // use_count above 1 means a replica or in-flight session still decodes
  // on those weights; it will be collectable on a later pass once the
  // last session drains (use_count is monotone-decreasing for retired
  // versions: nobody hands out new references except the registry, and
  // the registry only serves current()).
  std::vector<std::uint64_t> retire;
  const std::size_t resident = versions_.size();
  std::size_t index = 0;
  for (const auto& [v, mv] : versions_) {
    const bool in_keep_window =
        index + registry_config_.keep_latest + 1 >= resident;
    ++index;
    if (in_keep_window) continue;
    if (mv == current_) continue;
    // The structured binding is a reference into the map, so the map's
    // own reference is the only one a fully-drained version has left.
    if (mv.use_count() > 1) continue;
    retire.push_back(v);
  }
  for (const std::uint64_t v : retire) versions_.erase(v);
  gc_collected_ += retire.size();
  if (!retire.empty()) {
    RegistryMetrics& metrics = RegistryMetrics::get();
    metrics.gc_collected.inc(retire.size());
    metrics.resident_versions.set(static_cast<double>(versions_.size()));
  }
  return retire.size();
}

std::size_t ModelRegistry::scan_dir() {
  if (registry_config_.dir.empty()) return 0;
  // Same locking shape as publish(): the directory walk, snapshot loads
  // and model constructions run under publish_mutex_ only; mutex_ is
  // taken briefly per install, so a polling scan never stalls serving.
  std::lock_guard publish_lock(publish_mutex_);
  std::error_code ec;
  std::filesystem::directory_iterator it{registry_config_.dir, ec};
  if (ec) return 0;
  std::vector<std::pair<std::uint64_t, std::string>> fresh;
  for (const auto& entry : it) {
    if (!entry.is_regular_file(ec)) continue;
    const auto version =
        model::parse_snapshot_filename(entry.path().filename().string());
    if (!version.has_value()) continue;
    if (dir_seen_.contains(*version)) continue;
    fresh.emplace_back(*version, entry.path().string());
  }
  // Ascending install order keeps last_version_ and current_ consistent
  // with the directory's newest snapshot.
  std::sort(fresh.begin(), fresh.end());
  std::size_t installed = 0;
  for (auto& [version, path] : fresh) {
    dir_seen_.insert(version);  // success or failure: never re-read
    auto loaded = model::load_snapshot_file(path);
    if (!loaded.ok()) {
      RegistryMetrics::get().publish_rejected.inc();
      VPR_LOG(Warn) << "ModelRegistry: rejected snapshot " << path << ": "
                    << loaded.error;
      continue;
    }
    if (loaded.snapshot->state.size() != expected_params_) {
      RegistryMetrics::get().publish_rejected.inc();
      VPR_LOG(Warn) << "ModelRegistry: rejected snapshot " << path
                    << ": wrong architecture ("
                    << loaded.snapshot->state.size() << " params, expected "
                    << expected_params_ << ")";
      continue;
    }
    bool resident = false;
    {
      std::lock_guard lock(mutex_);
      resident = versions_.contains(version);
    }
    if (resident) continue;
    auto mv = std::make_shared<const ModelVersion>(
        config_, loaded.snapshot->state, version,
        std::move(loaded.snapshot->meta));
    std::lock_guard lock(mutex_);
    install_locked(std::move(mv));
    ++installed;
  }
  if (installed > 0) {
    std::lock_guard lock(mutex_);
    gc_locked();
  }
  return installed;
}

void ModelRegistry::record_outcome(std::uint64_t version,
                                   double top_log_prob) {
  std::lock_guard lock(mutex_);
  VersionStats& stats = stats_[version];
  ++stats.requests;
  stats.sum_top_log_prob += top_log_prob;
}

std::uint64_t ModelRegistry::published_total() const {
  std::lock_guard lock(mutex_);
  return published_;
}

std::uint64_t ModelRegistry::gc_collected_total() const {
  std::lock_guard lock(mutex_);
  return gc_collected_;
}

util::Json ModelRegistry::to_json() const {
  std::lock_guard lock(mutex_);
  util::Json j = util::Json::object();
  j["current_version"] = static_cast<double>(
      current_ ? current_->version() : 0);
  j["published"] = static_cast<double>(published_);
  j["gc_collected"] = static_cast<double>(gc_collected_);
  util::Json resident = util::Json::array();
  for (const auto& [v, mv] : versions_) {
    resident.push_back(static_cast<double>(v));
  }
  j["versions"] = std::move(resident);
  util::Json ab = util::Json::array();
  double latest_mean = 0.0;
  double prev_mean = 0.0;
  std::uint64_t latest_v = 0;
  std::uint64_t prev_v = 0;
  for (const auto& [v, stats] : stats_) {
    if (stats.requests == 0) continue;
    const double mean =
        stats.sum_top_log_prob / static_cast<double>(stats.requests);
    util::Json row = util::Json::object();
    row["version"] = static_cast<double>(v);
    row["requests"] = static_cast<double>(stats.requests);
    row["mean_top_log_prob"] = mean;
    ab.push_back(std::move(row));
    prev_v = latest_v;
    prev_mean = latest_mean;
    latest_v = v;
    latest_mean = mean;
  }
  j["ab"] = std::move(ab);
  if (prev_v != 0) {
    // Positive = the newest version's recommendations carry higher
    // sequence likelihood than its predecessor's on live traffic.
    j["ab_delta_latest_vs_prev"] = latest_mean - prev_mean;
  }
  return j;
}

}  // namespace vpr::serve
