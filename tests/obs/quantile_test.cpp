// obs::QuantileSketch — the mergeable tail-latency sketch behind fleet
// p99/p99.9. The properties under test are the ones the serving layer
// leans on: every reported quantile is within the configured relative
// accuracy of a true observation at that rank, merging sketches is
// exactly equivalent to observing the union (so it is associative and
// commutative by construction), mismatched accuracies refuse to merge,
// zeros/negatives collapse into the zero bucket instead of feeding log()
// garbage, and non-finite values are ignored.

#include "obs/quantile.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <limits>
#include <stdexcept>
#include <vector>

#include "util/json.h"
#include "util/rng.h"

namespace vpr::obs {
namespace {

/// Latency-shaped sample: log-uniform across ~5 decades (0.01 ms .. 1 s),
/// deterministic per seed so the exact order statistics are reproducible.
std::vector<double> log_uniform_sample(std::uint64_t seed, int n) {
  util::Rng rng{seed};
  std::vector<double> out;
  out.reserve(static_cast<std::size_t>(n));
  for (int i = 0; i < n; ++i) {
    const double u = rng.uniform();  // [0, 1)
    out.push_back(0.01 * std::pow(10.0, 5.0 * u));
  }
  return out;
}

/// Exact order statistic with the same rank convention the sketch uses.
double exact_quantile(std::vector<double> values, double q) {
  std::sort(values.begin(), values.end());
  const auto rank = static_cast<std::size_t>(
      q * static_cast<double>(values.size() - 1));
  return values[rank];
}

TEST(QuantileSketch, EmptySketchReportsZeros) {
  QuantileSketch sketch;
  EXPECT_EQ(sketch.count(), 0u);
  EXPECT_EQ(sketch.sum(), 0.0);
  EXPECT_EQ(sketch.min(), 0.0);
  EXPECT_EQ(sketch.max(), 0.0);
  EXPECT_EQ(sketch.quantile(0.5), 0.0);
  EXPECT_EQ(sketch.quantile(0.999), 0.0);
}

TEST(QuantileSketch, ConstructorRejectsBadAccuracy) {
  EXPECT_THROW(QuantileSketch{0.0}, std::invalid_argument);
  EXPECT_THROW(QuantileSketch{1.0}, std::invalid_argument);
  EXPECT_THROW(QuantileSketch{-0.5}, std::invalid_argument);
}

TEST(QuantileSketch, QuantilesStayWithinRelativeAccuracy) {
  constexpr double kAlpha = 0.01;
  const auto values = log_uniform_sample(0x9e3779b9ULL, 20'000);

  QuantileSketch sketch{kAlpha};
  for (double v : values) sketch.observe(v);
  ASSERT_EQ(sketch.count(), values.size());

  // The guarantee: quantile(q) is within a factor (1 ± alpha) of a true
  // observation at that rank. Bucket quantization can shift the answer by
  // at most one bucket, so test against 2*alpha of the exact statistic.
  for (double q : {0.50, 0.90, 0.99, 0.999}) {
    const double exact = exact_quantile(values, q);
    const double estimated = sketch.quantile(q);
    EXPECT_NEAR(estimated, exact, 2.0 * kAlpha * exact)
        << "q=" << q << " exact=" << exact << " estimated=" << estimated;
  }
  EXPECT_EQ(sketch.min(), *std::min_element(values.begin(), values.end()));
  EXPECT_EQ(sketch.max(), *std::max_element(values.begin(), values.end()));
}

TEST(QuantileSketch, MergeEqualsObservingTheUnion) {
  const auto values = log_uniform_sample(0xc0ffeeULL, 9'000);

  // One sketch sees everything; three shards split the stream (the
  // per-replica situation the router merges across).
  QuantileSketch whole;
  QuantileSketch shards[3];
  for (std::size_t i = 0; i < values.size(); ++i) {
    whole.observe(values[i]);
    shards[i % 3].observe(values[i]);
  }

  QuantileSketch merged;
  for (const auto& shard : shards) merged.merge(shard);

  EXPECT_EQ(merged.count(), whole.count());
  EXPECT_EQ(merged.min(), whole.min());
  EXPECT_EQ(merged.max(), whole.max());
  EXPECT_NEAR(merged.sum(), whole.sum(), 1e-6 * std::abs(whole.sum()));
  // Quantiles come from bucket counts, which the merge adds exactly.
  for (double q : {0.1, 0.5, 0.9, 0.99, 0.999}) {
    EXPECT_EQ(merged.quantile(q), whole.quantile(q)) << "q=" << q;
  }
}

TEST(QuantileSketch, MergeIsAssociativeAndCommutative) {
  QuantileSketch a, b, c;
  for (double v : log_uniform_sample(1, 500)) a.observe(v);
  for (double v : log_uniform_sample(2, 700)) b.observe(v);
  for (double v : log_uniform_sample(3, 300)) c.observe(v);

  QuantileSketch ab_c = a;  // (a + b) + c
  ab_c.merge(b);
  ab_c.merge(c);

  QuantileSketch bc = b;  // a + (b + c)
  bc.merge(c);
  QuantileSketch a_bc = a;
  a_bc.merge(bc);

  QuantileSketch cba = c;  // c + b + a
  cba.merge(b);
  cba.merge(a);

  EXPECT_EQ(ab_c.count(), a_bc.count());
  EXPECT_EQ(ab_c.count(), cba.count());
  for (double q : {0.25, 0.5, 0.9, 0.99, 0.999}) {
    EXPECT_EQ(ab_c.quantile(q), a_bc.quantile(q)) << "q=" << q;
    EXPECT_EQ(ab_c.quantile(q), cba.quantile(q)) << "q=" << q;
  }
}

TEST(QuantileSketch, MergeRejectsMismatchedAccuracy) {
  QuantileSketch fine{0.01};
  QuantileSketch coarse{0.05};
  coarse.observe(1.0);
  EXPECT_THROW(fine.merge(coarse), std::invalid_argument);
}

TEST(QuantileSketch, MergingAnEmptySketchIsANoOp) {
  QuantileSketch sketch;
  sketch.observe(3.0);
  sketch.observe(7.0);
  const double before = sketch.quantile(0.5);
  QuantileSketch empty;
  sketch.merge(empty);
  EXPECT_EQ(sketch.count(), 2u);
  EXPECT_EQ(sketch.quantile(0.5), before);
}

TEST(QuantileSketch, ZerosAndNegativesLandInTheZeroBucket) {
  QuantileSketch sketch;
  sketch.observe(0.0);
  sketch.observe(-5.0);  // clamped: durations cannot be negative
  sketch.observe(10.0);
  sketch.observe(10.0);
  EXPECT_EQ(sketch.count(), 4u);
  // Ranks 0 and 1 are the zero-bucket entries; the upper half is ~10.
  EXPECT_EQ(sketch.quantile(0.0), 0.0);
  EXPECT_NEAR(sketch.quantile(0.99), 10.0, 0.25);
  EXPECT_EQ(sketch.min(), -5.0);
  EXPECT_EQ(sketch.max(), 10.0);
}

TEST(QuantileSketch, NanObservationsAreIgnored) {
  QuantileSketch sketch;
  sketch.observe(std::nan(""));
  sketch.observe(2.0);
  EXPECT_EQ(sketch.count(), 1u);
  EXPECT_NEAR(sketch.quantile(0.5), 2.0, 0.05);
}

TEST(QuantileSketch, InfinitiesAreIgnoredLikeNan) {
  // +inf would overflow the bucket index; -inf would poison sum and min.
  QuantileSketch sketch;
  sketch.observe(std::numeric_limits<double>::infinity());
  sketch.observe(-std::numeric_limits<double>::infinity());
  EXPECT_EQ(sketch.count(), 0u);
  sketch.observe(2.0);
  EXPECT_EQ(sketch.count(), 1u);
  EXPECT_EQ(sketch.sum(), 2.0);
  EXPECT_EQ(sketch.min(), 2.0);
  EXPECT_EQ(sketch.max(), 2.0);
  EXPECT_NEAR(sketch.quantile(0.5), 2.0, 0.05);
}

TEST(QuantileSketch, ResetClearsEverything) {
  QuantileSketch sketch;
  for (double v : log_uniform_sample(4, 100)) sketch.observe(v);
  sketch.reset();
  EXPECT_EQ(sketch.count(), 0u);
  EXPECT_EQ(sketch.quantile(0.99), 0.0);
  sketch.observe(1.0);  // usable again after reset
  EXPECT_EQ(sketch.count(), 1u);
}

TEST(QuantileSketch, JsonCarriesTheBenchShape) {
  QuantileSketch sketch;
  for (double v : log_uniform_sample(5, 2'000)) sketch.observe(v);
  const util::Json j = sketch.to_json();
  ASSERT_TRUE(j.is_object());
  const auto& fields = j.as_object();
  for (const char* key :
       {"alpha", "count", "sum", "min", "max", "p50", "p90", "p99", "p999"}) {
    EXPECT_EQ(fields.count(key), 1u) << key;
  }
  EXPECT_EQ(fields.at("count").as_number(), 2000.0);
  EXPECT_EQ(fields.at("p99").as_number(), sketch.quantile(0.99));
}

}  // namespace
}  // namespace vpr::obs
