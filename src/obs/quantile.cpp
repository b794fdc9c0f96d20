#include "obs/quantile.h"

#include <algorithm>
#include <cassert>
#include <cmath>
#include <stdexcept>

namespace vpr::obs {

namespace {
/// Values at or below this collapse into the zero bucket; latencies are
/// positive, so this only swallows exact zeros and denormal noise.
constexpr double kZeroThreshold = 1e-9;
}  // namespace

QuantileSketch::QuantileSketch(double relative_accuracy)
    : alpha_(relative_accuracy) {
  if (!(alpha_ > 0.0) || !(alpha_ < 1.0)) {
    throw std::invalid_argument(
        "QuantileSketch: relative_accuracy must be in (0, 1)");
  }
  gamma_ = (1.0 + alpha_) / (1.0 - alpha_);
  log_gamma_ = std::log(gamma_);
}

int QuantileSketch::bucket_index(double value) const {
  return static_cast<int>(std::ceil(std::log(value) / log_gamma_));
}

double QuantileSketch::bucket_value(int index) const {
  // Midpoint (harmonic sense) of (gamma^(i-1), gamma^i]: guaranteed within
  // a factor (1 ± alpha) of every value the bucket absorbed.
  return 2.0 * std::pow(gamma_, index) / (gamma_ + 1.0);
}

void QuantileSketch::observe(double value) {
  // NaN and ±inf carry no rank; +inf would also overflow bucket_index.
  if (!std::isfinite(value)) return;
  if (count_ == 0) {
    min_ = max_ = value;
  } else {
    min_ = std::min(min_, value);
    max_ = std::max(max_, value);
  }
  ++count_;
  sum_ += value;
  if (value <= kZeroThreshold) {
    // Negative values cannot happen for durations; clamp them into the
    // zero bucket rather than taking log of a negative.
    ++zero_count_;
    return;
  }
  ++buckets_[bucket_index(value)];
}

void QuantileSketch::merge(const QuantileSketch& other) {
  if (other.alpha_ != alpha_) {
    throw std::invalid_argument(
        "QuantileSketch::merge: relative accuracies differ");
  }
  if (other.count_ == 0) return;
  if (count_ == 0) {
    min_ = other.min_;
    max_ = other.max_;
  } else {
    min_ = std::min(min_, other.min_);
    max_ = std::max(max_, other.max_);
  }
  count_ += other.count_;
  sum_ += other.sum_;
  zero_count_ += other.zero_count_;
  for (const auto& [index, n] : other.buckets_) buckets_[index] += n;
}

double QuantileSketch::quantile(double q) const {
  if (count_ == 0) return 0.0;
  q = std::clamp(q, 0.0, 1.0);
  // Rank of the requested quantile, 0-based over all observations.
  const auto rank = static_cast<std::uint64_t>(
      q * static_cast<double>(count_ - 1));
  std::uint64_t seen = zero_count_;
  if (rank < seen) return 0.0;
  for (const auto& [index, n] : buckets_) {
    seen += n;
    if (rank < seen) return bucket_value(index);
  }
  return max_;  // unreachable unless rounding left rank == count_
}

void QuantileSketch::reset() {
  buckets_.clear();
  zero_count_ = 0;
  count_ = 0;
  sum_ = 0.0;
  min_ = 0.0;
  max_ = 0.0;
}

util::Json QuantileSketch::to_json() const {
  util::Json j = util::Json::object();
  j["alpha"] = alpha_;
  j["count"] = static_cast<double>(count_);
  j["sum"] = sum_;
  j["min"] = min();
  j["max"] = max();
  j["p50"] = quantile(0.50);
  j["p90"] = quantile(0.90);
  j["p99"] = quantile(0.99);
  j["p999"] = quantile(0.999);
  return j;
}

}  // namespace vpr::obs
