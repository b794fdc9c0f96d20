#pragma once
// Process-wide metrics registry: named counters, gauges and latency
// summaries, registered once and updated through cheap handles.
//
// Registration (counter()/gauge()/summary()) takes a mutex and is meant
// to happen once per call site — constructors, static init — returning a
// stable reference. Counter and gauge updates are single relaxed atomic
// RMWs with no lock; a summary observe takes only its own series' mutex.
// The registry dumps as JSON (`--metrics-out=FILE`, `insightalign
// metrics`) and as Prometheus text exposition for scraping.
//
// Series are process-wide and monotone, Prometheus-style: two FlowEval or
// RecommendService instances in one process share the same series, and a
// component that wants instance-local numbers (tests do) snapshots a
// baseline and reports deltas — see FlowEval::stats() and
// RecommendService::counters(), which are exactly such views.

#include <atomic>
#include <cstdint>
#include <iosfwd>
#include <map>
#include <memory>
#include <mutex>
#include <string>

#include "obs/quantile.h"
#include "util/json.h"

namespace vpr::obs {

/// Monotone integer counter.
class Counter {
 public:
  void inc(std::uint64_t n = 1) noexcept {
    value_.fetch_add(n, std::memory_order_relaxed);
  }
  [[nodiscard]] std::uint64_t value() const noexcept {
    return value_.load(std::memory_order_relaxed);
  }

 private:
  friend class MetricsRegistry;
  Counter() = default;
  std::atomic<std::uint64_t> value_{0};
};

/// Monotone double accumulator (wall-seconds totals and the like).
class CounterD {
 public:
  void add(double x) noexcept {
    double cur = value_.load(std::memory_order_relaxed);
    while (!value_.compare_exchange_weak(cur, cur + x,
                                         std::memory_order_relaxed)) {
    }
  }
  [[nodiscard]] double value() const noexcept {
    return value_.load(std::memory_order_relaxed);
  }

 private:
  friend class MetricsRegistry;
  CounterD() = default;
  std::atomic<double> value_{0.0};
};

/// Instantaneous value (queue depth, in-flight requests, ...).
class Gauge {
 public:
  void set(double x) noexcept { value_.store(x, std::memory_order_relaxed); }
  /// Raise-to-maximum (peak gauges). Relaxed CAS.
  void max(double x) noexcept {
    double cur = value_.load(std::memory_order_relaxed);
    while (cur < x && !value_.compare_exchange_weak(
                          cur, x, std::memory_order_relaxed)) {
    }
  }
  [[nodiscard]] double value() const noexcept {
    return value_.load(std::memory_order_relaxed);
  }

 private:
  friend class MetricsRegistry;
  Gauge() = default;
  std::atomic<double> value_{0.0};
};

/// Latency distribution: an obs::QuantileSketch (1% relative error) behind
/// a mutex. Its log buckets follow the values it records, so 0.1 ms swaps
/// and multi-second flow runs resolve alike with no geometry chosen up
/// front. observe() is a short critical section, not a lone atomic RMW.
class Summary {
 public:
  void observe(double x) {
    std::lock_guard lock(mutex_);
    sketch_.observe(x);
  }
  /// Copy of the sketch: quantiles, count, sum and the JSON dump shape.
  [[nodiscard]] QuantileSketch snapshot() const {
    std::lock_guard lock(mutex_);
    return sketch_;
  }

 private:
  friend class MetricsRegistry;
  Summary() = default;

  mutable std::mutex mutex_;
  QuantileSketch sketch_;
};

class MetricsRegistry {
 public:
  /// The process-wide registry the CLI dumps.
  static MetricsRegistry& instance();
  /// Tests may own private registries.
  MetricsRegistry() = default;
  MetricsRegistry(const MetricsRegistry&) = delete;
  MetricsRegistry& operator=(const MetricsRegistry&) = delete;

  /// Register-or-fetch by name. Repeated calls return the same handle;
  /// `help` is kept from the first registration. Registering an existing
  /// name as a different kind throws std::invalid_argument.
  Counter& counter(const std::string& name, const std::string& help = "");
  CounterD& counter_d(const std::string& name, const std::string& help = "");
  Gauge& gauge(const std::string& name, const std::string& help = "");
  Summary& summary(const std::string& name, const std::string& help = "");

  /// Flat {"name": value, ...} object; a summary expands to its sketch's
  /// QuantileSketch::to_json() (count, sum, min, max, p50 .. p999).
  [[nodiscard]] util::Json to_json() const;
  /// Prometheus text exposition. Metric names are sanitized ('.' and
  /// other invalid characters become '_'); every series gets a # TYPE and
  /// a # HELP line (the metric name when no help was registered); label
  /// values are escaped per the exposition format. Values are snapshotted
  /// under the registration mutex and formatted after it is released, so
  /// a slow scrape never stalls hot-path registration.
  void write_prometheus(std::ostream& os) const;
  /// write_prometheus when `path` ends in .prom or .txt, JSON otherwise;
  /// false when the file cannot be written.
  bool write_file(const std::string& path) const;

  /// Zero every value (tests). Handles stay valid.
  void reset();

  [[nodiscard]] static std::string sanitize_name(const std::string& name);
  /// Prometheus label-value escaping: backslash, double quote and newline
  /// become \\, \" and \n (exposition-format rules). Exposed for tests.
  [[nodiscard]] static std::string escape_label_value(const std::string& v);

 private:
  struct Metric {
    enum class Kind { kCounter, kCounterD, kGauge, kSummary } kind;
    std::string help;
    std::unique_ptr<Counter> counter;
    std::unique_ptr<CounterD> counter_d;
    std::unique_ptr<Gauge> gauge;
    std::unique_ptr<Summary> summary;
  };

  Metric& fetch(const std::string& name, Metric::Kind kind,
                const std::string& help);

  mutable std::mutex mutex_;
  std::map<std::string, Metric> metrics_;  // sorted => stable dumps
};

}  // namespace vpr::obs
