// serve::ModelRegistry — versioned publish/current/GC semantics plus the
// cross-process directory protocol. The RCU contract under test: publish
// never invalidates a shared_ptr a reader holds, GC only collects retired
// versions nobody pins, and scan_dir() installs exactly the verified
// snapshots (corrupt files are rejected once and never re-read).

#include <gtest/gtest.h>

#include <cstdint>
#include <filesystem>
#include <fstream>
#include <memory>
#include <stdexcept>
#include <vector>

#include "align/recipe_model.h"
#include "model/snapshot.h"
#include "serve/registry.h"
#include "util/json.h"
#include "util/rng.h"

namespace vpr::serve {
namespace {

namespace fs = std::filesystem;

/// Deterministic per-version weights: version v's state is a pure function
/// of v, so two registries (or two processes) agree on what v looks like.
std::vector<double> version_state(std::uint64_t v) {
  util::Rng rng{util::hash_combine(0xa11c3a7ULL, v)};
  align::RecipeModel model{align::ModelConfig{}, rng};
  return model.state();
}

struct TempDir {
  fs::path path;
  explicit TempDir(const char* name) {
    path = fs::path(testing::TempDir()) / name;
    fs::remove_all(path);
    fs::create_directories(path);
  }
  ~TempDir() {
    std::error_code ec;
    fs::remove_all(path, ec);
  }
};

TEST(ModelRegistry, PublishAssignsMonotoneVersionsAndUpdatesCurrent) {
  ModelRegistry registry{align::ModelConfig{}};
  EXPECT_EQ(registry.current_version(), 0u);
  EXPECT_EQ(registry.current(), nullptr);
  EXPECT_EQ(registry.size(), 0u);

  EXPECT_EQ(registry.publish(version_state(1), "first"), 1u);
  EXPECT_EQ(registry.publish(version_state(2), "second"), 2u);
  EXPECT_EQ(registry.current_version(), 2u);
  EXPECT_EQ(registry.published_total(), 2u);

  const auto current = registry.current();
  ASSERT_NE(current, nullptr);
  EXPECT_EQ(current->version(), 2u);
  EXPECT_EQ(current->meta(), "second");
  EXPECT_EQ(current->checksum(), model::state_checksum(version_state(2)));
  // The embedded model carries exactly the published weights.
  EXPECT_EQ(current->model().state(), version_state(2));

  const auto v1 = registry.version(1);
  ASSERT_NE(v1, nullptr);
  EXPECT_EQ(v1->model().state(), version_state(1));
  EXPECT_EQ(registry.version(99), nullptr);
}

TEST(ModelRegistry, PublishRejectsWrongArchitecture) {
  ModelRegistry registry{align::ModelConfig{}};
  std::vector<double> wrong(registry.expected_params() + 1, 0.0);
  EXPECT_THROW((void)registry.publish(wrong, "bad"), std::invalid_argument);
  // The rejected publish must leave no trace.
  EXPECT_EQ(registry.current_version(), 0u);
  EXPECT_EQ(registry.published_total(), 0u);
  EXPECT_EQ(registry.size(), 0u);
}

TEST(ModelRegistry, GcCollectsRetiredVersionsButNeverPinnedOnes) {
  RegistryConfig rc;
  rc.keep_latest = 1;  // resident set: current + 1 retired
  ModelRegistry registry{align::ModelConfig{}, rc};
  registry.publish(version_state(1), "v1");

  // Pin v1 the way a replica or in-flight request would: hold the
  // shared_ptr across publishes.
  std::shared_ptr<const ModelVersion> pin = registry.version(1);
  ASSERT_NE(pin, nullptr);

  registry.publish(version_state(2), "v2");
  registry.publish(version_state(3), "v3");
  registry.publish(version_state(4), "v4");

  // v2 fell out of the keep window unpinned and was collected; v1 is
  // equally retired but pinned, so it must survive.
  EXPECT_EQ(registry.versions(), (std::vector<std::uint64_t>{1, 3, 4}));
  EXPECT_EQ(registry.gc_collected_total(), 1u);
  // The pinned weights are still the ones published as v1 — the GC pass
  // did not touch the object the pin points at.
  EXPECT_EQ(pin->model().state(), version_state(1));

  // Releasing the pin makes v1 collectable on the next pass.
  pin.reset();
  EXPECT_EQ(registry.gc(), 1u);
  EXPECT_EQ(registry.versions(), (std::vector<std::uint64_t>{3, 4}));
  EXPECT_EQ(registry.gc_collected_total(), 2u);

  // The current version is never collected regardless of window math.
  EXPECT_EQ(registry.gc(), 0u);
  EXPECT_EQ(registry.current_version(), 4u);
}

TEST(ModelRegistry, DirectoryPersistsAcrossRestart) {
  TempDir dir{"insightalign_registry_restart"};
  RegistryConfig rc;
  rc.dir = dir.path.string();
  {
    ModelRegistry registry{align::ModelConfig{}, rc};
    registry.publish(version_state(1), "v1");
    registry.publish(version_state(2), "v2");
    EXPECT_TRUE(fs::exists(dir.path / model::snapshot_filename(1)));
    EXPECT_TRUE(fs::exists(dir.path / model::snapshot_filename(2)));
  }
  // A fresh registry over the same directory resumes at the highest
  // persisted version, weights bitwise intact.
  ModelRegistry restarted{align::ModelConfig{}, rc};
  EXPECT_EQ(restarted.current_version(), 2u);
  ASSERT_NE(restarted.current(), nullptr);
  EXPECT_EQ(restarted.current()->model().state(), version_state(2));
  // The next publish continues the sequence rather than re-using ids.
  EXPECT_EQ(restarted.publish(version_state(3), "v3"), 3u);
}

TEST(ModelRegistry, ScanDirPicksUpForeignPublishes) {
  // Two registries over one directory model `insightalign publish` feeding
  // a running `insightalign serve`: the writer persists, the reader's
  // scan_dir() installs.
  TempDir dir{"insightalign_registry_scan"};
  RegistryConfig rc;
  rc.dir = dir.path.string();
  ModelRegistry writer{align::ModelConfig{}, rc};
  ModelRegistry reader{align::ModelConfig{}, rc};

  writer.publish(version_state(1), "v1");
  EXPECT_EQ(reader.current_version(), 0u);
  EXPECT_EQ(reader.scan_dir(), 1u);
  EXPECT_EQ(reader.current_version(), 1u);
  EXPECT_EQ(reader.current()->model().state(), version_state(1));

  // Nothing new: the poll is a no-op, not a re-install.
  EXPECT_EQ(reader.scan_dir(), 0u);
  EXPECT_EQ(reader.published_total(), 1u);

  writer.publish(version_state(2), "v2");
  writer.publish(version_state(3), "v3");
  EXPECT_EQ(reader.scan_dir(), 2u);
  EXPECT_EQ(reader.current_version(), 3u);
}

TEST(ModelRegistry, ScanDirRejectsCorruptSnapshotsOnce) {
  TempDir dir{"insightalign_registry_corrupt"};
  RegistryConfig rc;
  rc.dir = dir.path.string();
  ModelRegistry registry{align::ModelConfig{}, rc};
  registry.publish(version_state(1), "v1");

  // A bit-flipped copy of a valid snapshot under the next version name:
  // parses as a snapshot file, fails the checksum.
  {
    std::ifstream is{dir.path / model::snapshot_filename(1),
                     std::ios::binary};
    std::string bytes{std::istreambuf_iterator<char>{is},
                      std::istreambuf_iterator<char>{}};
    bytes.back() = static_cast<char>(bytes.back() ^ 0x01);
    std::ofstream os{dir.path / model::snapshot_filename(2),
                     std::ios::binary};
    os << bytes;
  }
  // Plus a file that is not a snapshot at all.
  {
    std::ofstream os{dir.path / model::snapshot_filename(3),
                     std::ios::binary};
    os << "garbage";
  }
  // And a foreign file the scanner must simply ignore.
  { std::ofstream os{dir.path / "README.txt"}; os << "hello"; }

  EXPECT_EQ(registry.scan_dir(), 0u);
  EXPECT_EQ(registry.current_version(), 1u);
  EXPECT_EQ(registry.version(2), nullptr);
  EXPECT_EQ(registry.version(3), nullptr);

  // Rejected versions are remembered: a later valid snapshot under a NEW
  // version still installs, but the bad files are never retried.
  EXPECT_EQ(registry.scan_dir(), 0u);
  {
    model::Snapshot snapshot;
    snapshot.version = 4;
    snapshot.meta = "v4";
    snapshot.state = version_state(4);
    ASSERT_TRUE(model::save_snapshot_file(
        snapshot, (dir.path / model::snapshot_filename(4)).string()));
  }
  EXPECT_EQ(registry.scan_dir(), 1u);
  EXPECT_EQ(registry.current_version(), 4u);
}

TEST(ModelRegistry, ScanDirRejectsWrongArchitectureSnapshots) {
  TempDir dir{"insightalign_registry_arch"};
  RegistryConfig rc;
  rc.dir = dir.path.string();
  ModelRegistry registry{align::ModelConfig{}, rc};

  model::Snapshot snapshot;
  snapshot.version = 1;
  snapshot.meta = "tiny";
  snapshot.state = {1.0, 2.0, 3.0};  // valid file, wrong parameter count
  ASSERT_TRUE(model::save_snapshot_file(
      snapshot, (dir.path / model::snapshot_filename(1)).string()));

  EXPECT_EQ(registry.scan_dir(), 0u);
  EXPECT_EQ(registry.current_version(), 0u);
  EXPECT_EQ(registry.size(), 0u);
}

TEST(ModelRegistry, RecordOutcomeFeedsAbAccounting) {
  ModelRegistry registry{align::ModelConfig{}};
  registry.publish(version_state(1), "v1");
  registry.publish(version_state(2), "v2");

  registry.record_outcome(1, -4.0);
  registry.record_outcome(1, -6.0);   // v1 mean: -5.0
  registry.record_outcome(2, -3.0);   // v2 mean: -3.0

  const util::Json j = registry.to_json();
  ASSERT_TRUE(j.is_object());
  EXPECT_EQ(j.as_object().at("current_version").as_number(), 2.0);
  EXPECT_EQ(j.as_object().at("published").as_number(), 2.0);

  const auto& ab = j.as_object().at("ab").as_array();
  ASSERT_EQ(ab.size(), 2u);
  EXPECT_EQ(ab[0].as_object().at("version").as_number(), 1.0);
  EXPECT_EQ(ab[0].as_object().at("requests").as_number(), 2.0);
  EXPECT_DOUBLE_EQ(ab[0].as_object().at("mean_top_log_prob").as_number(),
                   -5.0);
  EXPECT_EQ(ab[1].as_object().at("version").as_number(), 2.0);
  EXPECT_DOUBLE_EQ(ab[1].as_object().at("mean_top_log_prob").as_number(),
                   -3.0);
  // Positive delta: the newer version's top candidates carry higher
  // sequence likelihood on the recorded traffic.
  EXPECT_DOUBLE_EQ(
      j.as_object().at("ab_delta_latest_vs_prev").as_number(), 2.0);
}

}  // namespace
}  // namespace vpr::serve
