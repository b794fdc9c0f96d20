// perfbench: the end-to-end benchmark harness. One process runs one
// workload and prints, as the last line of stdout, the result object
//   {"correct": ..., "attempted": N, "failed": N, "metrics": {...}}
// with the end-to-end metrics (--trace 0) or the per-layer metrics its
// layers exercise (--trace 1). Usually started through perfbench/run.py,
// which builds it and checks the metric names against BENCHMARK.json.
//
//   perfbench --workload offline_table4|recommend_unseen|serve_socket
//             --seed N --seconds S --trace 0|1 [--revision TEXT]

#include <sched.h>

#include <cstdio>
#include <cstdlib>
#include <exception>
#include <string>
#include <thread>

#include "common.h"
#include "layers.h"
#include "nn/kernels.h"

namespace perfbench {
namespace {

int affinity_cpus() {
  cpu_set_t set;
  CPU_ZERO(&set);
  if (sched_getaffinity(0, sizeof(set), &set) != 0) return 0;
  return CPU_COUNT(&set);
}

std::string json_escape(const std::string& s) {
  std::string out;
  for (const char c : s) {
    if (c == '"' || c == '\\') out += '\\';
    if (static_cast<unsigned char>(c) >= 0x20) out += c;
  }
  return out;
}

void print_result(const Result& r, const std::map<std::string, Metric>& m) {
  std::string line = "{\"correct\": ";
  line += r.correct ? "true" : "false";
  line += ", \"attempted\": " + std::to_string(r.attempted);
  line += ", \"failed\": " + std::to_string(r.failed);
  line += ", \"metrics\": {";
  bool first = true;
  for (const auto& [name, metric] : m) {
    char value[64];
    std::snprintf(value, sizeof(value), "%.12g", metric.value);
    line += first ? "" : ", ";
    line += "\"" + name + "\": {\"value\": " + value + ", \"unit\": \"" +
            metric.unit + "\"}";
    first = false;
  }
  line += "}}";
  std::printf("%s\n", line.c_str());
}

int usage() {
  std::fprintf(stderr,
               "usage: perfbench --workload offline_table4|recommend_unseen|"
               "serve_socket --seed N --seconds S --trace 0|1 "
               "[--revision TEXT]\n");
  return 2;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  using namespace perfbench;
  Options opt;
  std::string revision = "unknown";
  try {
    for (int i = 1; i < argc; i += 2) {
      if (i + 1 >= argc) return usage();
      const std::string key = argv[i];
      const std::string value = argv[i + 1];
      if (key == "--workload") {
        opt.workload = value;
      } else if (key == "--seed") {
        opt.seed = std::stoull(value);
      } else if (key == "--seconds") {
        opt.seconds = std::stod(value);
      } else if (key == "--trace") {
        if (value != "0" && value != "1") return usage();
        opt.trace = value == "1";
      } else if (key == "--revision") {
        revision = value;
      } else {
        return usage();
      }
    }
  } catch (const std::exception&) {
    return usage();
  }
  if (opt.seconds <= 0.0) return usage();

  std::printf(
      "{\"provenance\": {\"workload\": \"%s\", \"seed\": %llu, \"seconds\": "
      "%g, \"trace\": %d, \"nproc\": %d, \"hardware_concurrency\": %u, "
      "\"kernel_isa\": \"%s\", \"revision\": \"%s\"}}\n",
      json_escape(opt.workload).c_str(),
      static_cast<unsigned long long>(opt.seed), opt.seconds,
      opt.trace ? 1 : 0, affinity_cpus(), std::thread::hardware_concurrency(),
      vpr::nn::kern::active_isa() == vpr::nn::kern::Isa::kAvx2 ? "avx2"
                                                                : "scalar",
      json_escape(revision).c_str());
  std::fflush(stdout);

  Result result;
  try {
    if (opt.workload == "offline_table4") {
      run_offline_table4(opt, result);
    } else if (opt.workload == "recommend_unseen") {
      run_recommend_unseen(opt, result);
    } else if (opt.workload == "serve_socket") {
      run_serve_socket(opt, result);
    } else {
      return usage();
    }
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench: %s failed: %s\n", opt.workload.c_str(),
                 e.what());
    return 1;
  }

  if (result.attempted == 0) {
    std::fprintf(stderr, "perfbench: no operation attempted\n");
    return 1;
  }
  std::fflush(stdout);
  print_result(result, opt.trace ? result.layer : result.metrics);
  std::fflush(stdout);
  return 0;
}
