// MetricsRegistry: handle registration semantics, summary quantiles
// against exact sample percentiles, and the JSON / Prometheus dumps.

#include "obs/metrics.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <sstream>
#include <stdexcept>
#include <thread>
#include <vector>

#include "util/rng.h"
#include "util/stats.h"

namespace vpr::obs {
namespace {

TEST(MetricsRegistryTest, RegistrationIsIdempotent) {
  MetricsRegistry registry;
  Counter& a = registry.counter("reqs", "requests");
  Counter& b = registry.counter("reqs", "ignored second help");
  EXPECT_EQ(&a, &b);
  a.inc();
  b.inc(2);
  EXPECT_EQ(a.value(), 3u);
}

TEST(MetricsRegistryTest, KindMismatchThrows) {
  MetricsRegistry registry;
  registry.counter("x");
  EXPECT_THROW(registry.gauge("x"), std::invalid_argument);
  EXPECT_THROW(registry.counter_d("x"), std::invalid_argument);
  EXPECT_THROW(registry.summary("x"), std::invalid_argument);
  Summary& s = registry.summary("s");
  EXPECT_THROW(registry.counter("s"), std::invalid_argument);
  EXPECT_EQ(&registry.summary("s"), &s);
}

TEST(MetricsRegistryTest, CounterDAndGauge) {
  MetricsRegistry registry;
  CounterD& seconds = registry.counter_d("busy_seconds");
  seconds.add(0.25);
  seconds.add(0.5);
  EXPECT_DOUBLE_EQ(seconds.value(), 0.75);

  Gauge& depth = registry.gauge("depth");
  depth.set(3.0);
  EXPECT_DOUBLE_EQ(depth.value(), 3.0);
  depth.max(5.0);
  EXPECT_DOUBLE_EQ(depth.value(), 5.0);
  depth.max(2.0);  // max() never lowers
  EXPECT_DOUBLE_EQ(depth.value(), 5.0);
}

TEST(MetricsRegistryTest, SummaryTracksExactPercentilesAcrossDecades) {
  // 0.05 ms .. 5 s: one series must resolve a sub-millisecond swap and a
  // multi-second flow run alike. 10001 log-uniform samples put p50 and
  // p99 exactly on a sample, so util::percentile interpolates nothing and
  // the sketch's 1% relative bound applies directly.
  MetricsRegistry registry;
  Summary& summary = registry.summary("lat");
  util::Rng rng{11};
  std::vector<double> samples = {0.05, 5000.0};
  while (samples.size() < 10001) {
    samples.push_back(0.05 * std::pow(10.0, 5.0 * rng.uniform()));
  }
  double sum = 0.0;
  for (const double x : samples) {
    summary.observe(x);
    sum += x;
  }
  const QuantileSketch sketch = summary.snapshot();
  EXPECT_EQ(sketch.count(), samples.size());
  EXPECT_NEAR(sketch.sum(), sum, 1e-9 * sum);
  EXPECT_EQ(sketch.min(), 0.05);
  EXPECT_EQ(sketch.max(), 5000.0);
  for (const double p : {50.0, 99.0}) {
    const double exact = util::percentile(samples, p);
    EXPECT_NEAR(sketch.quantile(p / 100.0), exact, 0.01 * exact) << "p" << p;
  }
}

TEST(MetricsRegistryTest, ConcurrentUpdatesAreLossless) {
  MetricsRegistry registry;
  Counter& hits = registry.counter("hits");
  Summary& h = registry.summary("obs");
  constexpr int kThreads = 4;
  constexpr int kEach = 10000;
  std::vector<std::thread> workers;
  for (int t = 0; t < kThreads; ++t) {
    workers.emplace_back([&] {
      for (int i = 0; i < kEach; ++i) {
        hits.inc();
        h.observe(0.5);
      }
    });
  }
  for (auto& w : workers) w.join();
  EXPECT_EQ(hits.value(), static_cast<std::uint64_t>(kThreads * kEach));
  EXPECT_EQ(h.snapshot().count(),
            static_cast<std::uint64_t>(kThreads * kEach));
}

TEST(MetricsRegistryTest, JsonDumpContainsEverySeries) {
  MetricsRegistry registry;
  registry.counter("a.count").inc(7);
  registry.gauge("b.gauge").set(1.5);
  registry.summary("c.summary").observe(1.0);
  std::ostringstream os;
  registry.to_json().write(os);
  const std::string json = os.str();
  EXPECT_NE(json.find("\"a.count\""), std::string::npos);
  EXPECT_NE(json.find("\"b.gauge\""), std::string::npos);
  EXPECT_NE(json.find("\"c.summary\""), std::string::npos);
  EXPECT_NE(json.find("\"count\""), std::string::npos);
  EXPECT_NE(json.find("\"sum\""), std::string::npos);
  EXPECT_NE(json.find("\"p99\""), std::string::npos);
  EXPECT_EQ(json.find("\"buckets\""), std::string::npos);
}

TEST(MetricsRegistryTest, PrometheusTextExposition) {
  MetricsRegistry registry;
  registry.counter("serve.requests", "total requests").inc(3);
  registry.gauge("queue.depth").set(2.0);
  Summary& h = registry.summary("latency.ms", "latency");
  h.observe(1.0);
  h.observe(9.0);
  std::ostringstream os;
  registry.write_prometheus(os);
  const std::string text = os.str();
  // Names are sanitized: '.' is not legal in a Prometheus metric name.
  EXPECT_EQ(text.find("serve.requests"), std::string::npos);
  EXPECT_NE(text.find("# TYPE serve_requests counter"), std::string::npos);
  EXPECT_NE(text.find("# HELP serve_requests total requests"),
            std::string::npos);
  EXPECT_NE(text.find("serve_requests 3"), std::string::npos);
  EXPECT_NE(text.find("# TYPE queue_depth gauge"), std::string::npos);
  EXPECT_NE(text.find("# TYPE latency_ms summary"), std::string::npos);
  // Quantile samples straight from the sketch; no _bucket series.
  for (const double q : {0.5, 0.9, 0.99, 0.999}) {
    std::ostringstream line;
    line << "latency_ms{quantile=\"" << q << "\"} "
         << h.snapshot().quantile(q) << '\n';
    EXPECT_NE(text.find(line.str()), std::string::npos) << line.str();
  }
  EXPECT_NE(text.find("latency_ms{quantile=\"0.99\"} "), std::string::npos);
  EXPECT_EQ(text.find("_bucket"), std::string::npos);
  EXPECT_NE(text.find("latency_ms_count 2"), std::string::npos);
  EXPECT_NE(text.find("latency_ms_sum 10"), std::string::npos);
}

TEST(MetricsRegistryTest, SanitizeName) {
  EXPECT_EQ(MetricsRegistry::sanitize_name("flow.eval.hits"),
            "flow_eval_hits");
  EXPECT_EQ(MetricsRegistry::sanitize_name("ok_name:x9"), "ok_name:x9");
  EXPECT_EQ(MetricsRegistry::sanitize_name("weird name!"), "weird_name_");
}

TEST(MetricsRegistryTest, ResetZeroesButKeepsHandles) {
  MetricsRegistry registry;
  Counter& c = registry.counter("c");
  Summary& h = registry.summary("h");
  c.inc(5);
  h.observe(0.3);
  registry.reset();
  EXPECT_EQ(c.value(), 0u);
  EXPECT_EQ(h.snapshot().count(), 0u);
  c.inc();  // handles still live
  h.observe(0.3);
  EXPECT_EQ(c.value(), 1u);
  EXPECT_EQ(h.snapshot().count(), 1u);
}

TEST(MetricsRegistryTest, ProcessInstanceIsSingleton) {
  EXPECT_EQ(&MetricsRegistry::instance(), &MetricsRegistry::instance());
}

TEST(MetricsRegistryTest, HelpTextEscapesBackslashesAndNewlines) {
  // Exposition hardening: a raw newline in HELP text would split the
  // comment line and corrupt the whole scrape; backslashes must be
  // doubled per the text-format escaping rules.
  MetricsRegistry registry;
  registry.counter("tricky", "path C:\\tmp\nsecond line").inc();
  std::ostringstream os;
  registry.write_prometheus(os);
  const std::string text = os.str();
  EXPECT_NE(text.find("# HELP tricky path C:\\\\tmp\\nsecond line"),
            std::string::npos);
  // Exactly the expected physical lines: HELP, TYPE, sample.
  EXPECT_EQ(std::count(text.begin(), text.end(), '\n'), 3);
}

TEST(MetricsRegistryTest, EscapeLabelValue) {
  EXPECT_EQ(MetricsRegistry::escape_label_value("plain"), "plain");
  EXPECT_EQ(MetricsRegistry::escape_label_value("a\"b"), "a\\\"b");
  EXPECT_EQ(MetricsRegistry::escape_label_value("back\\slash"),
            "back\\\\slash");
  EXPECT_EQ(MetricsRegistry::escape_label_value("line\nbreak"),
            "line\\nbreak");
}

TEST(MetricsRegistryTest, EveryTypeLineHasAHelpLine) {
  // Even help-less registrations get a HELP line (falling back to the
  // metric name) so scrapers never see a bare # TYPE.
  MetricsRegistry registry;
  registry.counter("no.help.counter").inc();
  registry.gauge("no.help.gauge").set(1.0);
  std::ostringstream os;
  registry.write_prometheus(os);
  const std::string text = os.str();
  std::size_t types = 0, helps = 0, pos = 0;
  while ((pos = text.find("# TYPE ", pos)) != std::string::npos) {
    ++types;
    pos += 7;
  }
  pos = 0;
  while ((pos = text.find("# HELP ", pos)) != std::string::npos) {
    ++helps;
    pos += 7;
  }
  EXPECT_EQ(types, 2u);
  EXPECT_EQ(helps, types);
  EXPECT_NE(text.find("# HELP no_help_counter no.help.counter"),
            std::string::npos);
}

}  // namespace
}  // namespace vpr::obs
