#include "obs/metrics.h"

#include <fstream>
#include <ostream>
#include <stdexcept>
#include <vector>

namespace vpr::obs {

MetricsRegistry& MetricsRegistry::instance() {
  static MetricsRegistry* registry = new MetricsRegistry();
  return *registry;
}

MetricsRegistry::Metric& MetricsRegistry::fetch(const std::string& name,
                                                Metric::Kind kind,
                                                const std::string& help) {
  auto [it, inserted] = metrics_.try_emplace(name);
  Metric& metric = it->second;
  if (inserted) {
    metric.kind = kind;
    metric.help = help;
  } else if (metric.kind != kind) {
    throw std::invalid_argument("MetricsRegistry: '" + name +
                                "' already registered as a different kind");
  }
  return metric;
}

Counter& MetricsRegistry::counter(const std::string& name,
                                  const std::string& help) {
  std::lock_guard lock(mutex_);
  Metric& metric = fetch(name, Metric::Kind::kCounter, help);
  if (!metric.counter) metric.counter.reset(new Counter());
  return *metric.counter;
}

CounterD& MetricsRegistry::counter_d(const std::string& name,
                                     const std::string& help) {
  std::lock_guard lock(mutex_);
  Metric& metric = fetch(name, Metric::Kind::kCounterD, help);
  if (!metric.counter_d) metric.counter_d.reset(new CounterD());
  return *metric.counter_d;
}

Gauge& MetricsRegistry::gauge(const std::string& name,
                              const std::string& help) {
  std::lock_guard lock(mutex_);
  Metric& metric = fetch(name, Metric::Kind::kGauge, help);
  if (!metric.gauge) metric.gauge.reset(new Gauge());
  return *metric.gauge;
}

Summary& MetricsRegistry::summary(const std::string& name,
                                  const std::string& help) {
  std::lock_guard lock(mutex_);
  Metric& metric = fetch(name, Metric::Kind::kSummary, help);
  if (!metric.summary) metric.summary.reset(new Summary());
  return *metric.summary;
}

util::Json MetricsRegistry::to_json() const {
  std::lock_guard lock(mutex_);
  util::Json root = util::Json::object();
  for (const auto& [name, metric] : metrics_) {
    switch (metric.kind) {
      case Metric::Kind::kCounter:
        root[name] = static_cast<double>(metric.counter->value());
        break;
      case Metric::Kind::kCounterD:
        root[name] = metric.counter_d->value();
        break;
      case Metric::Kind::kGauge:
        root[name] = metric.gauge->value();
        break;
      case Metric::Kind::kSummary:
        root[name] = metric.summary->snapshot().to_json();
        break;
    }
  }
  return root;
}

std::string MetricsRegistry::sanitize_name(const std::string& name) {
  std::string out = name;
  for (char& c : out) {
    const bool ok = (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') ||
                    (c >= '0' && c <= '9') || c == '_' || c == ':';
    if (!ok) c = '_';
  }
  if (!out.empty() && out[0] >= '0' && out[0] <= '9') out.insert(0, 1, '_');
  return out;
}

std::string MetricsRegistry::escape_label_value(const std::string& v) {
  std::string out;
  out.reserve(v.size());
  for (const char c : v) {
    switch (c) {
      case '\\': out += "\\\\"; break;
      case '"': out += "\\\""; break;
      case '\n': out += "\\n"; break;
      default: out += c;
    }
  }
  return out;
}

void MetricsRegistry::write_prometheus(std::ostream& os) const {
  // Snapshot under the lock, format outside it: a scrape stalled on a slow
  // socket must never block counter()/gauge() registration on the serving
  // path. Counters and gauges are relaxed atomic reads; a summary is
  // copied under its own mutex.
  struct Sample {
    std::string prom;
    std::string help;
    Metric::Kind kind;
    double value = 0.0;           // counter / gauge
    std::uint64_t count_i = 0;    // integer counter
    QuantileSketch sketch;        // summary
  };

  std::vector<Sample> samples;
  {
    std::lock_guard lock(mutex_);
    samples.reserve(metrics_.size());
    for (const auto& [name, metric] : metrics_) {
      Sample s;
      s.prom = sanitize_name(name);
      // Exposition convention: every series gets a # HELP line; fall back
      // to the metric name so scrapers never see a bare # TYPE.
      s.help = metric.help.empty() ? name : metric.help;
      s.kind = metric.kind;
      switch (metric.kind) {
        case Metric::Kind::kCounter:
          s.count_i = metric.counter->value();
          break;
        case Metric::Kind::kCounterD:
          s.value = metric.counter_d->value();
          break;
        case Metric::Kind::kGauge:
          s.value = metric.gauge->value();
          break;
        case Metric::Kind::kSummary:
          s.sketch = metric.summary->snapshot();
          break;
      }
      samples.push_back(std::move(s));
    }
  }

  for (const Sample& s : samples) {
    // HELP text shares label-value escaping rules (\\ and \n).
    std::string help;
    for (const char c : s.help) {
      if (c == '\\') help += "\\\\";
      else if (c == '\n') help += "\\n";
      else help += c;
    }
    os << "# HELP " << s.prom << ' ' << help << '\n';
    switch (s.kind) {
      case Metric::Kind::kCounter:
        os << "# TYPE " << s.prom << " counter\n"
           << s.prom << ' ' << s.count_i << '\n';
        break;
      case Metric::Kind::kCounterD:
        os << "# TYPE " << s.prom << " counter\n"
           << s.prom << ' ' << s.value << '\n';
        break;
      case Metric::Kind::kGauge:
        os << "# TYPE " << s.prom << " gauge\n"
           << s.prom << ' ' << s.value << '\n';
        break;
      case Metric::Kind::kSummary:
        os << "# TYPE " << s.prom << " summary\n";
        for (const double q : {0.5, 0.9, 0.99, 0.999}) {
          os << s.prom << "{quantile=\"" << q << "\"} "
             << s.sketch.quantile(q) << '\n';
        }
        os << s.prom << "_sum " << s.sketch.sum() << '\n'
           << s.prom << "_count " << s.sketch.count() << '\n';
        break;
    }
  }
}

bool MetricsRegistry::write_file(const std::string& path) const {
  std::ofstream os{path};
  if (!os) return false;
  const bool prom = path.size() >= 5 && (path.rfind(".prom") == path.size() - 5);
  const bool txt = path.size() >= 4 && (path.rfind(".txt") == path.size() - 4);
  if (prom || txt) {
    write_prometheus(os);
  } else {
    to_json().write(os);
    os << '\n';
  }
  os.flush();
  return os.good();
}

void MetricsRegistry::reset() {
  std::lock_guard lock(mutex_);
  for (auto& [name, metric] : metrics_) {
    switch (metric.kind) {
      case Metric::Kind::kCounter:
        metric.counter->value_.store(0, std::memory_order_relaxed);
        break;
      case Metric::Kind::kCounterD:
        metric.counter_d->value_.store(0.0, std::memory_order_relaxed);
        break;
      case Metric::Kind::kGauge:
        metric.gauge->value_.store(0.0, std::memory_order_relaxed);
        break;
      case Metric::Kind::kSummary: {
        std::lock_guard summary_lock(metric.summary->mutex_);
        metric.summary->sketch_.reset();
        break;
      }
    }
  }
}

}  // namespace vpr::obs
