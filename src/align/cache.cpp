#include "align/cache.h"

#include <algorithm>
#include <cstdint>
#include <filesystem>
#include <fstream>

#include "insight/insight.h"
#include "util/serialize.h"

namespace vpr::align {

namespace {

using util::read_pod;
using util::read_string;
using util::write_pod;
using util::write_string;

// v1 (0x1a5e7001) had no insight-dimension field; a v1 cache written with a
// different insight::kInsightDims would be silently misparsed, so the magic
// is bumped and old files are rejected as a format mismatch.
constexpr std::uint32_t kDatasetMagic = 0x1a5e7003;
constexpr std::uint32_t kCvMagic = 0x1a5e7002;

void write_point(std::ostream& os, const DataPoint& p) {
  write_pod(os, p.recipes.to_u64());
  write_pod(os, p.power);
  write_pod(os, p.tns);
  write_pod(os, p.score);
}

bool read_point(std::istream& is, DataPoint& p) {
  std::uint64_t bits = 0;
  if (!read_pod(is, bits)) return false;
  p.recipes = flow::RecipeSet::from_u64(bits);
  return read_pod(is, p.power) && read_pod(is, p.tns) && read_pod(is, p.score);
}

}  // namespace

std::string cache_dir() { return util::cache_dir(); }

bool save_dataset(const OfflineDataset& dataset, const QorWeights& weights,
                  const std::string& path) {
  std::error_code ec;
  const auto parent = std::filesystem::path(path).parent_path();
  std::filesystem::create_directories(parent.empty() ? "." : parent, ec);
  std::ofstream os{path, std::ios::binary};
  if (!os) return false;
  write_pod(os, kDatasetMagic);
  write_pod(os, static_cast<std::uint32_t>(insight::kInsightDims));
  write_pod(os, weights.power);
  write_pod(os, weights.tns);
  write_pod(os, static_cast<std::uint64_t>(dataset.size()));
  for (const auto& d : dataset.designs()) {
    write_string(os, d.name);
    for (const double x : d.insight_vec) write_pod(os, x);
    write_pod(os, static_cast<std::uint64_t>(d.points.size()));
    for (const auto& p : d.points) write_point(os, p);
  }
  os.flush();
  return os.good();
}

std::optional<OfflineDataset> load_dataset(const std::string& path) {
  std::ifstream is{path, std::ios::binary};
  if (!is) return std::nullopt;
  std::uint32_t magic = 0;
  if (!read_pod(is, magic) || magic != kDatasetMagic) return std::nullopt;
  std::uint32_t dims = 0;
  if (!read_pod(is, dims) ||
      dims != static_cast<std::uint32_t>(insight::kInsightDims)) {
    return std::nullopt;
  }
  QorWeights weights;
  if (!read_pod(is, weights.power) || !read_pod(is, weights.tns)) {
    return std::nullopt;
  }
  std::uint64_t n_designs = 0;
  if (!read_pod(is, n_designs) || n_designs > 1000) return std::nullopt;
  std::vector<DesignData> designs(n_designs);
  for (auto& d : designs) {
    if (!read_string(is, d.name)) return std::nullopt;
    for (auto& x : d.insight_vec) {
      if (!read_pod(is, x)) return std::nullopt;
    }
    std::uint64_t n_points = 0;
    if (!read_pod(is, n_points) || n_points > (1u << 24)) return std::nullopt;
    // The count is untrusted: reserve a bounded prefix and grow only as
    // points actually arrive, so a short file cannot size the allocation.
    d.points.reserve(std::min<std::uint64_t>(n_points, 4096));
    for (std::uint64_t i = 0; i < n_points; ++i) {
      DataPoint p;
      if (!read_point(is, p)) return std::nullopt;
      d.points.push_back(p);
    }
  }
  return OfflineDataset::from_designs(std::move(designs), weights);
}

bool save_cv_result(const CrossValidationResult& result,
                    const std::string& path) {
  std::ofstream os{path, std::ios::binary};
  if (!os) return false;
  write_pod(os, kCvMagic);
  write_pod(os, static_cast<std::uint64_t>(result.rows.size()));
  for (const auto& row : result.rows) {
    write_string(os, row.design);
    write_pod(os, row.known_tns);
    write_pod(os, row.known_power);
    write_pod(os, row.known_score);
    write_pod(os, row.rec_tns);
    write_pod(os, row.rec_power);
    write_pod(os, row.rec_score);
    write_pod(os, row.win_pct);
    write_pod(os, row.best_recipes.to_u64());
    write_pod(os, static_cast<std::uint64_t>(row.recommendations.size()));
    for (const auto& p : row.recommendations) write_point(os, p);
  }
  write_pod(os, static_cast<std::uint64_t>(result.fold_train_accuracy.size()));
  for (const double a : result.fold_train_accuracy) write_pod(os, a);
  write_pod(os, static_cast<std::uint64_t>(result.fold_test_accuracy.size()));
  for (const double a : result.fold_test_accuracy) write_pod(os, a);
  os.flush();
  return os.good();
}

std::optional<CrossValidationResult> load_cv_result(const std::string& path) {
  std::ifstream is{path, std::ios::binary};
  if (!is) return std::nullopt;
  std::uint32_t magic = 0;
  if (!read_pod(is, magic) || magic != kCvMagic) return std::nullopt;
  CrossValidationResult result;
  std::uint64_t n_rows = 0;
  if (!read_pod(is, n_rows) || n_rows > 1000) return std::nullopt;
  result.rows.resize(n_rows);
  for (auto& row : result.rows) {
    if (!read_string(is, row.design)) return std::nullopt;
    std::uint64_t bits = 0;
    std::uint64_t n_recs = 0;
    if (!read_pod(is, row.known_tns) || !read_pod(is, row.known_power) ||
        !read_pod(is, row.known_score) || !read_pod(is, row.rec_tns) ||
        !read_pod(is, row.rec_power) || !read_pod(is, row.rec_score) ||
        !read_pod(is, row.win_pct) || !read_pod(is, bits) ||
        !read_pod(is, n_recs) || n_recs > (1u << 16)) {
      return std::nullopt;
    }
    row.best_recipes = flow::RecipeSet::from_u64(bits);
    row.recommendations.resize(n_recs);
    for (auto& p : row.recommendations) {
      if (!read_point(is, p)) return std::nullopt;
    }
  }
  std::uint64_t n = 0;
  if (!read_pod(is, n) || n > 64) return std::nullopt;
  result.fold_train_accuracy.resize(n);
  for (auto& a : result.fold_train_accuracy) {
    if (!read_pod(is, a)) return std::nullopt;
  }
  if (!read_pod(is, n) || n > 64) return std::nullopt;
  result.fold_test_accuracy.resize(n);
  for (auto& a : result.fold_test_accuracy) {
    if (!read_pod(is, a)) return std::nullopt;
  }
  return result;
}

OfflineDataset dataset_from_designs(std::vector<DesignData> designs,
                                    const QorWeights& weights) {
  return OfflineDataset::from_designs(std::move(designs), weights);
}

}  // namespace vpr::align
