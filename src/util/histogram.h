#pragma once
// Fixed-bin histogram with ASCII rendering, used by the flow report's
// endpoint slack plot. Latency distributions are obs::QuantileSketch
// summaries instead (obs/metrics.h).

#include <string>
#include <vector>

namespace vpr::util {

class Histogram {
 public:
  /// Bins [lo, hi) into `bins` equal buckets; out-of-range samples clamp
  /// into the first/last bin. Requires lo < hi and bins >= 1.
  Histogram(double lo, double hi, int bins);

  void add(double x);
  void add_all(const std::vector<double>& xs);

  [[nodiscard]] int bins() const noexcept {
    return static_cast<int>(counts_.size());
  }
  [[nodiscard]] long count(int bin) const;
  [[nodiscard]] long total() const noexcept { return total_; }
  [[nodiscard]] double bin_lo(int bin) const;
  [[nodiscard]] double bin_hi(int bin) const;

  /// Multi-line ASCII rendering: one row per bin with a proportional bar,
  /// e.g. "[ -0.10,  0.00) ############ 34".
  [[nodiscard]] std::string render(int width = 40) const;

 private:
  double lo_;
  double hi_;
  std::vector<long> counts_;
  long total_ = 0;
};

}  // namespace vpr::util
