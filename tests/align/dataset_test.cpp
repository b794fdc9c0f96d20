#include "align/dataset.h"

#include <gtest/gtest.h>
#include <sys/resource.h>

#include <algorithm>
#include <bit>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <memory>
#include <set>

#include "align/cache.h"
#include "insight/insight.h"
#include "netlist/suite.h"
#include "util/rng.h"

namespace vpr::align {
namespace {

const std::vector<const flow::Design*>& two_designs() {
  static const flow::Design d1{[] {
    netlist::DesignTraits t;
    t.name = "dsA";
    t.target_cells = 500;
    t.clock_period_ns = 2.0;
    t.seed = 2001;
    return t;
  }()};
  static const flow::Design d2{[] {
    netlist::DesignTraits t;
    t.name = "dsB";
    t.target_cells = 500;
    t.clock_period_ns = 1.0;
    t.activity_mean = 0.25;
    t.seed = 2002;
    return t;
  }()};
  static const std::vector<const flow::Design*> v{&d1, &d2};
  return v;
}

DatasetConfig small_config() {
  DatasetConfig c;
  c.points_per_design = 12;
  c.seed = 777;
  return c;
}

const OfflineDataset& shared_dataset() {
  static const OfflineDataset ds =
      OfflineDataset::build(two_designs(), small_config());
  return ds;
}

TEST(RandomRecipeSet, RespectsBounds) {
  util::Rng rng{5};
  for (int i = 0; i < 200; ++i) {
    const auto rs = random_recipe_set(rng, 2, 6);
    EXPECT_GE(rs.count(), 2);
    EXPECT_LE(rs.count(), 6);
  }
  EXPECT_THROW((void)random_recipe_set(rng, 0, 5), std::invalid_argument);
  EXPECT_THROW((void)random_recipe_set(rng, 5, 2), std::invalid_argument);
}

TEST(OfflineDataset, BuildsRequestedShape) {
  const auto& ds = shared_dataset();
  ASSERT_EQ(ds.size(), 2u);
  EXPECT_EQ(ds.total_points(), 24);
  for (std::size_t d = 0; d < ds.size(); ++d) {
    EXPECT_EQ(ds.design(d).points.size(), 12u);
    // Recipe sets are de-duplicated.
    std::set<std::uint64_t> unique;
    for (const auto& p : ds.design(d).points) {
      unique.insert(p.recipes.to_u64());
      EXPECT_GT(p.power, 0.0);
      EXPECT_GE(p.tns, 0.0);
    }
    EXPECT_EQ(unique.size(), 12u);
  }
  EXPECT_EQ(ds.design(0).name, "dsA");
}

TEST(OfflineDataset, ScoresAreZNormalizedPerDesign) {
  const auto& ds = shared_dataset();
  for (std::size_t d = 0; d < ds.size(); ++d) {
    double mean = 0.0;
    for (const auto& p : ds.design(d).points) mean += p.score;
    mean /= static_cast<double>(ds.design(d).points.size());
    // Weighted sum of two z-scored metrics has ~zero mean by construction.
    EXPECT_NEAR(mean, 0.0, 1e-9);
  }
}

TEST(OfflineDataset, ScoreOfPrefersLowPowerAndTns) {
  const auto& data = shared_dataset().design(0);
  const double good = data.score_of(1.0, 0.0);
  const double bad = data.score_of(100.0, 50.0);
  EXPECT_GT(good, bad);
}

TEST(OfflineDataset, BestKnownIsMaxScore) {
  const auto& data = shared_dataset().design(0);
  const auto& best = data.best_known();
  for (const auto& p : data.points) EXPECT_LE(p.score, best.score);
}

TEST(OfflineDataset, InsightVectorPopulated) {
  const auto& data = shared_dataset().design(0);
  const auto iv = data.insight();
  ASSERT_EQ(iv.size(), 72u);
  EXPECT_DOUBLE_EQ(iv.back(), 1.0);
}

TEST(OfflineDataset, DeterministicRebuild) {
  const auto a = OfflineDataset::build(two_designs(), small_config());
  const auto b = OfflineDataset::build(two_designs(), small_config());
  for (std::size_t d = 0; d < a.size(); ++d) {
    for (std::size_t i = 0; i < a.design(d).points.size(); ++i) {
      EXPECT_EQ(a.design(d).points[i].recipes, b.design(d).points[i].recipes);
      EXPECT_DOUBLE_EQ(a.design(d).points[i].power,
                       b.design(d).points[i].power);
    }
  }
}

TEST(OfflineDataset, ValidatesInputs) {
  EXPECT_THROW((void)OfflineDataset::build({}, small_config()),
               std::invalid_argument);
  DatasetConfig bad = small_config();
  bad.points_per_design = 1;
  EXPECT_THROW((void)OfflineDataset::build(two_designs(), bad),
               std::invalid_argument);
}

TEST(OfflineDataset, BuildMatchesParentFingerprint) {
  // The bench harnesses' FAST archive over the first four suite designs,
  // hashed bit for bit: insight vectors, recipe sets, power, TNS and
  // score. The constant was captured with the designs built one after
  // another; building them concurrently must not move a bit.
  std::vector<std::unique_ptr<flow::Design>> owned;
  std::vector<const flow::Design*> designs;
  const auto suite = netlist::benchmark_suite();
  for (std::size_t k = 0; k < 4; ++k) {
    netlist::DesignTraits t = suite[k];
    t.target_cells = std::min(t.target_cells, 1200);
    owned.push_back(std::make_unique<flow::Design>(t));
    designs.push_back(owned.back().get());
  }
  DatasetConfig config;
  config.points_per_design = 24;
  config.seed = 0xda7a5e7ULL;
  const OfflineDataset ds = OfflineDataset::build(designs, config);

  std::uint64_t h = 0;
  const auto mix = [&h](double v) {
    h = util::hash_combine(h, std::bit_cast<std::uint64_t>(v));
  };
  for (const DesignData& data : ds.designs()) {
    for (const double v : data.insight_vec) mix(v);
    for (const DataPoint& p : data.points) {
      h = util::hash_combine(h, p.recipes.to_u64());
      mix(p.power);
      mix(p.tns);
      mix(p.score);
    }
  }
  EXPECT_EQ(h, 0x338da4de549b26d6ULL) << std::hex << "0x" << h;
}

TEST(DatasetCache, SaveLoadRoundTrip) {
  const auto& ds = shared_dataset();
  const std::string path =
      (std::filesystem::temp_directory_path() / "ia_ds_test.bin").string();
  ASSERT_TRUE(save_dataset(ds, QorWeights{}, path));
  const auto loaded = load_dataset(path);
  ASSERT_TRUE(loaded.has_value());
  ASSERT_EQ(loaded->size(), ds.size());
  for (std::size_t d = 0; d < ds.size(); ++d) {
    EXPECT_EQ(loaded->design(d).name, ds.design(d).name);
    EXPECT_EQ(loaded->design(d).insight_vec, ds.design(d).insight_vec);
    ASSERT_EQ(loaded->design(d).points.size(), ds.design(d).points.size());
    for (std::size_t i = 0; i < ds.design(d).points.size(); ++i) {
      EXPECT_EQ(loaded->design(d).points[i].recipes,
                ds.design(d).points[i].recipes);
      EXPECT_DOUBLE_EQ(loaded->design(d).points[i].score,
                       ds.design(d).points[i].score);
    }
  }
  std::remove(path.c_str());
}

TEST(DatasetCache, MissingOrCorruptFileReturnsNullopt) {
  EXPECT_FALSE(load_dataset("/nonexistent/path.bin").has_value());
  const std::string path =
      (std::filesystem::temp_directory_path() / "ia_corrupt.bin").string();
  {
    std::ofstream os{path, std::ios::binary};
    os << "not a dataset";
  }
  EXPECT_FALSE(load_dataset(path).has_value());
  std::remove(path.c_str());
}

TEST(DatasetCache, RejectsTruncatedFile) {
  const auto& ds = shared_dataset();
  const std::string path =
      (std::filesystem::temp_directory_path() / "ia_truncated.bin").string();
  ASSERT_TRUE(save_dataset(ds, QorWeights{}, path));
  const auto full_size = std::filesystem::file_size(path);
  std::filesystem::resize_file(path, full_size / 2);
  EXPECT_FALSE(load_dataset(path).has_value());
  std::remove(path.c_str());
}

TEST(DatasetCache, RejectsOldMagic) {
  // A v1 cache (magic 0x1a5e7001, no dimension field) must be rejected as
  // a format mismatch, not misparsed.
  const std::string path =
      (std::filesystem::temp_directory_path() / "ia_old_magic.bin").string();
  {
    std::ofstream os{path, std::ios::binary};
    const std::uint32_t old_magic = 0x1a5e7001;
    os.write(reinterpret_cast<const char*>(&old_magic), sizeof(old_magic));
    const double weights[2] = {0.7, 0.3};
    os.write(reinterpret_cast<const char*>(weights), sizeof(weights));
  }
  EXPECT_FALSE(load_dataset(path).has_value());
  std::remove(path.c_str());
}

TEST(DatasetCache, RejectsInsightDimensionMismatch) {
  const auto& ds = shared_dataset();
  const std::string path =
      (std::filesystem::temp_directory_path() / "ia_wrong_dims.bin").string();
  ASSERT_TRUE(save_dataset(ds, QorWeights{}, path));
  ASSERT_TRUE(load_dataset(path).has_value());
  {
    // Patch the recorded dimension (u32 right after the u32 magic), as if
    // the cache had been written by a build with a different
    // insight::kInsightDims.
    std::fstream fs{path, std::ios::binary | std::ios::in | std::ios::out};
    fs.seekp(sizeof(std::uint32_t));
    const std::uint32_t wrong_dims = insight::kInsightDims + 1;
    fs.write(reinterpret_cast<const char*>(&wrong_dims), sizeof(wrong_dims));
  }
  EXPECT_FALSE(load_dataset(path).has_value());
  std::remove(path.c_str());
}

TEST(DatasetCache, PlausiblePointCountWithoutPointsDoesNotAllocateIt) {
  // First design's point count patched to 2^24 (the bound; 512 MiB of
  // DataPoints) and the file cut right after it: the load must fail
  // without the reader first allocating what the header claims.
  const std::string path =
      (std::filesystem::temp_directory_path() / "ia_huge_count.bin").string();
  ASSERT_TRUE(save_dataset(shared_dataset(), QorWeights{}, path));
  const std::string& name = shared_dataset().design(0).name;
  // magic + dims (u32 each), two weights, design count, then the first
  // design's length-prefixed name and insight vector.
  const std::size_t count_offset = 2 * sizeof(std::uint32_t) +
                                   3 * sizeof(std::uint64_t) +
                                   sizeof(std::uint64_t) + name.size() +
                                   insight::kInsightDims * sizeof(double);
  {
    std::fstream fs{path, std::ios::binary | std::ios::in | std::ios::out};
    fs.seekp(static_cast<std::streamoff>(count_offset));
    const std::uint64_t claimed = 1ULL << 24;
    fs.write(reinterpret_cast<const char*>(&claimed), sizeof(claimed));
  }
  std::filesystem::resize_file(path, count_offset + sizeof(std::uint64_t));
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  const long before_kib = usage.ru_maxrss;
  EXPECT_FALSE(load_dataset(path).has_value());
  getrusage(RUSAGE_SELF, &usage);
  const long grown_kib = usage.ru_maxrss - before_kib;
  EXPECT_LT(grown_kib, 64 * 1024) << "peak RSS grew by " << grown_kib
                                  << " KiB";
  std::remove(path.c_str());
}

TEST(DatasetCache, SaveReportsFailureOnUnwritableTarget) {
  const std::string blocker =
      (std::filesystem::temp_directory_path() / "ia_blocker.bin").string();
  {
    std::ofstream os{blocker};
    os << "x";
  }
  // A regular file as a path component is unwritable even for root; the
  // old void-returning save would have silently dropped the dataset.
  EXPECT_FALSE(
      save_dataset(shared_dataset(), QorWeights{}, blocker + "/ds.bin"));
  std::remove(blocker.c_str());
}

}  // namespace
}  // namespace vpr::align
