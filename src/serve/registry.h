#pragma once
// Versioned model registry for the serving tier: the bridge that turns
// offline/online alignment into a continuously-deployed system. Trainers
// publish() refined weight vectors; every published version becomes an
// immutable ModelVersion (its own align::RecipeModel instance plus
// checksum and provenance) held behind a shared_ptr. Serving replicas
// read current() at batch boundaries and swap RCU-style: the publisher
// never blocks readers, readers never block the publisher, and a replica
// mid-decode keeps its pinned shared_ptr until the session drains — so
// in-flight requests finish bitwise on the weights they started with.
//
// Lifecycle: publish() assigns the next monotone version, optionally
// persists the snapshot into the registry directory (model::Snapshot
// format, checksummed), makes it current, and garbage-collects retired
// versions — a version is collectable once it is (a) not current, (b)
// outside the keep_latest window, and (c) unpinned (the registry holds
// the last reference). scan_dir() picks up snapshots published into the
// directory by *other* processes (`insightalign publish`), which is how
// a running `insightalign serve --registry-dir` hot-swaps without a
// restart; files failing the checksum are rejected and never installed.
//
// A/B accounting: record_outcome() attributes each completed
// recommendation to the version that served it (requests + mean top
// candidate log pi, the serving-time recommendation-quality proxy), so
// old-vs-new QoR is comparable on real traffic before a version wins.

#include <atomic>
#include <chrono>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <set>
#include <span>
#include <string>
#include <vector>

#include "align/recipe_model.h"
#include "model/snapshot.h"
#include "util/json.h"

namespace vpr::serve {

/// One immutable published version. The embedded model never changes
/// after construction; replicas share it read-only across threads.
class ModelVersion {
 public:
  ModelVersion(const align::ModelConfig& config,
               std::span<const double> state, std::uint64_t version,
               std::string meta);

  [[nodiscard]] std::uint64_t version() const noexcept { return version_; }
  /// FNV-1a 64 of the raw state bytes (the snapshot-format checksum).
  /// Computed lazily on first use: the byte-serial hash costs more than
  /// the rest of a publish combined, and only the version-info wire path
  /// ever asks for it. Thread-safe.
  [[nodiscard]] std::uint64_t checksum() const;
  [[nodiscard]] const std::string& meta() const noexcept { return meta_; }
  [[nodiscard]] const align::RecipeModel& model() const noexcept {
    return *model_;
  }
  /// When publish() installed this version (swap-latency measurements).
  [[nodiscard]] std::chrono::steady_clock::time_point published_at()
      const noexcept {
    return published_at_;
  }

 private:
  std::uint64_t version_;
  mutable std::once_flag checksum_once_;
  mutable std::uint64_t checksum_ = 0;
  std::string meta_;
  std::unique_ptr<align::RecipeModel> model_;
  std::chrono::steady_clock::time_point published_at_;
};

struct RegistryConfig {
  /// Snapshot directory; "" keeps the registry purely in-memory.
  std::string dir;
  /// Retired (non-current) versions kept resident for A/B comparison;
  /// older unpinned versions are garbage-collected on publish.
  std::size_t keep_latest = 2;
};

class ModelRegistry {
 public:
  /// All versions share `config` (a registry is one model architecture;
  /// publish() validates every state vector against its parameter count).
  /// When config_.dir exists it is scanned for snapshots immediately, so
  /// a restarted server resumes at the highest persisted version.
  explicit ModelRegistry(align::ModelConfig config, RegistryConfig rc = {});

  ModelRegistry(const ModelRegistry&) = delete;
  ModelRegistry& operator=(const ModelRegistry&) = delete;

  /// An in-memory registry holding a copy of `model` as version 1: what
  /// a service, router or server constructed on a plain model serves.
  [[nodiscard]] static std::shared_ptr<ModelRegistry> holding(
      const align::RecipeModel& model);

  /// Install `state` as the next version and make it current. Persists to
  /// the registry directory when one is configured (a disk failure logs a
  /// warning; the in-memory publish still succeeds). Returns the version
  /// id. Throws std::invalid_argument when the state size does not match
  /// the registry's model architecture — a malformed publish must never
  /// reach a replica.
  std::uint64_t publish(std::span<const double> state, std::string meta);

  /// The newest published version, or nullptr before the first publish.
  /// RCU read side: callers hold the shared_ptr for as long as they use
  /// the weights; the registry never mutates a published version.
  [[nodiscard]] std::shared_ptr<const ModelVersion> current() const;
  /// current()->version() without materializing the shared_ptr (0 before
  /// the first publish). Lock-free: replicas poll this every batch tick.
  [[nodiscard]] std::uint64_t current_version() const noexcept {
    return current_version_.load(std::memory_order_acquire);
  }
  /// A resident version by id (nullptr once GC'd or never published).
  [[nodiscard]] std::shared_ptr<const ModelVersion> version(
      std::uint64_t v) const;
  /// Resident version ids, ascending.
  [[nodiscard]] std::vector<std::uint64_t> versions() const;
  [[nodiscard]] std::size_t size() const;

  /// Collect retired versions: not current, outside the keep_latest
  /// window, and unpinned (use_count == 1, i.e. no replica or in-flight
  /// session still holds the weights). Runs automatically after each
  /// publish; callable any time. Returns the number collected.
  std::size_t gc();

  /// Scan the registry directory for snapshot files with versions newer
  /// than anything seen and install them (checksum-verified; corrupt or
  /// mismatched files are rejected with a warning and remembered, so a
  /// polling server does not re-read a bad file forever). Returns the
  /// number of versions installed. No-op without a directory.
  std::size_t scan_dir();

  /// Attribute one completed recommendation to `version` for the A/B
  /// counters; `top_log_prob` is the best candidate's sequence log pi.
  void record_outcome(std::uint64_t version, double top_log_prob);

  [[nodiscard]] const align::ModelConfig& model_config() const noexcept {
    return config_;
  }
  [[nodiscard]] std::size_t expected_params() const noexcept {
    return expected_params_;
  }
  [[nodiscard]] const RegistryConfig& config() const noexcept {
    return registry_config_;
  }
  /// Total successful publishes (scan_dir installs included).
  [[nodiscard]] std::uint64_t published_total() const;
  /// Versions collected by gc() so far.
  [[nodiscard]] std::uint64_t gc_collected_total() const;

  /// {current_version, versions, published, gc_collected, ab: [...]};
  /// the `ab` array keeps one row per version that ever served traffic
  /// (retired versions included) with requests and mean top log pi, plus
  /// the latest-vs-previous delta when both have traffic.
  [[nodiscard]] util::Json to_json() const;

 private:
  struct VersionStats {
    std::uint64_t requests = 0;
    double sum_top_log_prob = 0.0;
  };

  /// Installs a fully-constructed version (publish and scan_dir paths
  /// merge here). Caller holds mutex_.
  void install_locked(std::shared_ptr<const ModelVersion> mv);
  std::size_t gc_locked();

  align::ModelConfig config_;
  RegistryConfig registry_config_;
  std::size_t expected_params_ = 0;

  /// Serializes publishers (publish / scan_dir) against each other so a
  /// version id picked before the expensive ModelVersion construction is
  /// still the next id at install time. The expensive half of a publish —
  /// building the version's RecipeModel, snapshot file I/O — runs under
  /// this mutex only; `mutex_` (which the serving hot path takes per
  /// completion) is held just for the map installs. Lock order:
  /// publish_mutex_ before mutex_, never the reverse. dir_seen_ is
  /// guarded by publish_mutex_.
  std::mutex publish_mutex_;
  mutable std::mutex mutex_;
  std::map<std::uint64_t, std::shared_ptr<const ModelVersion>> versions_;
  std::shared_ptr<const ModelVersion> current_;
  std::atomic<std::uint64_t> current_version_{0};
  std::uint64_t last_version_ = 0;
  std::uint64_t published_ = 0;
  std::uint64_t gc_collected_ = 0;
  /// Directory files already installed or rejected (by version id), so a
  /// polling scan_dir stays O(listing).
  std::set<std::uint64_t> dir_seen_;
  /// A/B stats outlive their versions (a retired version's traffic stays
  /// comparable after GC).
  std::map<std::uint64_t, VersionStats> stats_;
};

}  // namespace vpr::serve
