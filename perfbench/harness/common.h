#pragma once
// Shared plumbing of the benchmark harness: run options, the result record
// every workload fills, clocks, percentiles and process resource readings.

#include <sched.h>
#include <sys/resource.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <iostream>
#include <map>
#include <string>
#include <vector>

#include "util/thread_pool.h"

namespace perfbench {

using Clock = std::chrono::steady_clock;

struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
};

struct Metric {
  double value = 0.0;
  std::string unit;
};

/// What one run reports. `attempted`/`failed` count the workload's user
/// operations; every failed correctness check also counts as failed.
struct Result {
  bool correct = true;
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::map<std::string, Metric> metrics;      // end-to-end (trace off)
  std::map<std::string, Metric> layer;        // per-layer (trace on)

  void fail(const std::string& why, std::uint64_t ops = 1) {
    correct = false;
    failed += ops;
    std::cerr << "perfbench: CHECK FAILED: " << why << '\n';
  }
  void set(const std::string& name, double value, const std::string& unit) {
    metrics[name] = {value, unit};
  }
  void set_layer(const std::string& name, double value,
                 const std::string& unit) {
    layer[name] = {value, unit};
  }
};

inline double seconds_since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}
inline double ms_since(Clock::time_point t0) {
  return std::chrono::duration<double, std::milli>(Clock::now() - t0)
      .count();
}

/// Nearest-rank percentile (q in [0, 1]); 0 for an empty sample.
inline double percentile(std::vector<double> v, double q) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const double rank = std::ceil(q * static_cast<double>(v.size()));
  const auto i = static_cast<std::size_t>(std::clamp(
      rank, 1.0, static_cast<double>(v.size())));
  return v[i - 1];
}
inline double median(const std::vector<double>& v) {
  return percentile(v, 0.5);
}

/// Peak resident set size of this process (getrusage), in MiB.
inline double peak_rss_mb() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;
}

/// User + system CPU seconds this process has consumed so far.
inline double cpu_seconds() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  const auto s = [](const timeval& t) {
    return static_cast<double>(t.tv_sec) +
           static_cast<double>(t.tv_usec) * 1e-6;
  };
  return s(ru.ru_utime) + s(ru.ru_stime);
}

/// Runs `setup` `reps` times before the timed work, prints each
/// repetition's wall time and returns the median (s). The workloads undo
/// each repetition's effects themselves (caches cleared, servers stopped),
/// so every repetition pays the full cold cost. (Repetitions taken after
/// the timed work ran up to half slower than those before it, so the
/// median of a mix would sit on the edge between the two groups.)
template <typename F>
double median_setup_seconds(const char* workload, int reps, F&& setup) {
  std::vector<double> times;
  std::printf("%s: set-up", workload);
  for (int r = 0; r < reps; ++r) {
    const auto t0 = Clock::now();
    setup();
    times.push_back(seconds_since(t0));
    std::printf(" %.3f", times.back());
  }
  std::printf(" s, median %.3f s\n", median(times));
  return median(times);
}

/// Moves the calling thread round-robin over the CPUs it may run on, one
/// CPU per next(), and gives it back its full CPU set when destroyed. On a
/// shared VM one vCPU can run a third slower than the others for a minute
/// at a time; a serial loop left on one CPU carries that luck into its
/// whole run, so its steps visit every CPU in turn instead. The shared
/// thread pool is created first, so its workers keep the full CPU set.
class CpuRotation {
 public:
  CpuRotation() {
    vpr::util::ThreadPool::shared();
    CPU_ZERO(&all_);
    if (sched_getaffinity(0, sizeof(all_), &all_) != 0) return;
    for (int c = 0; c < CPU_SETSIZE; ++c) {
      if (CPU_ISSET(c, &all_)) cpus_.push_back(c);
    }
  }
  ~CpuRotation() {
    if (!cpus_.empty()) sched_setaffinity(0, sizeof(all_), &all_);
  }
  CpuRotation(const CpuRotation&) = delete;
  CpuRotation& operator=(const CpuRotation&) = delete;

  void next() {
    if (cpus_.empty()) return;
    cpu_set_t one;
    CPU_ZERO(&one);
    CPU_SET(cpus_[step_++ % cpus_.size()], &one);
    sched_setaffinity(0, sizeof(one), &one);
  }

 private:
  cpu_set_t all_;
  std::vector<int> cpus_;
  std::size_t step_ = 0;
};

// Workload entry points (one translation unit each).
void run_offline_table4(const Options& opt, Result& out);
void run_recommend_unseen(const Options& opt, Result& out);
void run_serve_socket(const Options& opt, Result& out);

}  // namespace perfbench
