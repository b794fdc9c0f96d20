#pragma once
// Mergeable streaming quantile sketch with relative-error guarantees
// (DDSketch-style logarithmic buckets).
//
// Fixed-edge histograms cannot answer "what is p99.9" once latencies
// drift outside the edges chosen up front, and per-replica sample
// percentiles cannot be combined at all. QuantileSketch fixes both: values
// land in geometric buckets sized so every reported quantile is within a
// configurable *relative* error alpha of a true sample (p99 = 12.0 ms with
// alpha = 0.01 means some real observation in [11.88, 12.12] ms sits at
// that rank), and two sketches with the same alpha merge by adding bucket
// counts — which is exactly what the router does across replicas and the
// network client across connections. It is the one latency distribution
// type: registry summaries (obs::Summary), ServiceCounters percentiles and
// the bench reports all read it.
//
// Not thread-safe; callers wrap it in whatever lock already guards their
// counters (RecommendService's counters mutex, obs::Summary's own).

#include <cstdint>
#include <map>

#include "util/json.h"

namespace vpr::obs {

class QuantileSketch {
 public:
  /// alpha is the relative accuracy: quantile() is within a factor
  /// (1 ± alpha) of a true observation at that rank. Must be in (0, 1).
  explicit QuantileSketch(double relative_accuracy = 0.01);

  /// Non-finite values (NaN, ±inf) are ignored.
  void observe(double value);
  /// Add every observation of `other` into this sketch. Both sketches
  /// must have been built with the same relative accuracy (asserted).
  void merge(const QuantileSketch& other);

  /// Value at quantile q in [0, 1] (q=0.99 -> p99), within the relative
  /// accuracy bound. Returns 0 when empty.
  [[nodiscard]] double quantile(double q) const;

  [[nodiscard]] std::uint64_t count() const { return count_; }
  [[nodiscard]] double sum() const { return sum_; }
  [[nodiscard]] double min() const { return count_ > 0 ? min_ : 0.0; }
  [[nodiscard]] double max() const { return count_ > 0 ? max_ : 0.0; }
  [[nodiscard]] double relative_accuracy() const { return alpha_; }

  void reset();

  /// {"alpha":..,"count":..,"sum":..,"min":..,"max":..,"p50":..,
  ///  "p90":..,"p99":..,"p999":..} — the shape bench emitters embed.
  [[nodiscard]] util::Json to_json() const;

 private:
  [[nodiscard]] int bucket_index(double value) const;
  [[nodiscard]] double bucket_value(int index) const;

  double alpha_;
  double gamma_;      // (1 + alpha) / (1 - alpha)
  double log_gamma_;  // cached log(gamma_)
  std::map<int, std::uint64_t> buckets_;  // sparse: index -> count
  std::uint64_t zero_count_ = 0;          // values <= kZeroThreshold
  std::uint64_t count_ = 0;
  double sum_ = 0.0;
  double min_ = 0.0;
  double max_ = 0.0;
};

}  // namespace vpr::obs
