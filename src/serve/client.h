#pragma once
// Network load generator behind `insightalign serve-bench --connect`:
// opens N TCP connections to a running `insightalign serve --listen`
// server, keeps a window of pipelined requests in flight on each (so
// connections x window simulated users), replays the benchmark-suite
// insights, and reports aggregate QPS, latency percentiles, shed
// behaviour, and — when the server runs the default seeded model — a
// bitwise check of every kOk response against a local beam_search oracle.
//
// Every request originates a cross-process trace id
// (obs::TraceRecorder::next_id()) carried in the request frame and
// recorded as a client.request async span, so a client trace dump and the
// server's trace dump merge (obs::trace_merge) into one causally-linked
// Perfetto timeline per request.

#include <cstdint>
#include <string>
#include <vector>

#include "util/json.h"

namespace vpr::serve {

/// Number of benchmark-suite designs the load generator replays over.
inline constexpr int kBenchSuiteDesigns = 17;

/// One synthetic insight vector per suite design (seeded per design, bias
/// feature pinned to 1.0) — shared by the load generator and the serve
/// tests so both replay identical traffic and verify against the same
/// local beam_search oracle.
[[nodiscard]] std::vector<std::vector<double>> bench_suite_insights(
    int insight_dim);

struct ClientBenchOptions {
  std::string host = "127.0.0.1";
  int port = 0;
  /// TCP connections; each carries `window` pipelined requests, so the
  /// server sees connections x window concurrent users.
  int connections = 8;
  int window = 8;
  /// Total requests across all connections.
  int requests = 2048;
  int beam_width = 5;
  /// Per-request deadline sent on the wire; 0 = none.
  std::uint32_t deadline_ms = 0;
  /// Bitwise-verify kOk responses against a local oracle over the default
  /// seeded model. Disable when the server serves a trained model.
  bool verify = true;
  /// Optional JSON report path ("" = don't write).
  std::string json_path;
};

struct ClientBenchResult {
  std::uint64_t sent = 0;
  std::uint64_t ok = 0;
  std::uint64_t rejected = 0;
  std::uint64_t timed_out = 0;
  std::uint64_t shutdown = 0;
  std::uint64_t bad_request = 0;
  /// Connections that died on connect/read/write.
  std::uint64_t transport_errors = 0;
  double wall_ms = 0.0;
  /// kOk responses per second over the whole run.
  double qps = 0.0;
  /// kOk round-trip percentiles from the merged per-connection
  /// obs::QuantileSketch — the same mergeable estimate the server reports,
  /// so client-side and fleet-side tails are comparable.
  double p50_ms = 0.0;
  double p95_ms = 0.0;
  double p99_ms = 0.0;
  double p999_ms = 0.0;
  /// Mean round-trip of rejected (shed) responses — the "rejected fast"
  /// acceptance bar: shedding must cost far less than decoding.
  double mean_rejected_ms = 0.0;
  double mean_retry_after_ms = 0.0;
  bool bitwise_match = true;
  /// From the version probe each connection sends on connect: the model
  /// version the server reported (0 = fixed-model server) and the hot
  /// swaps its fleet had adopted at that point.
  std::uint64_t server_version = 0;
  std::uint64_t server_swaps = 0;
  /// Distinct model_version values observed across kOk responses,
  /// ascending — more than one means a hot swap landed mid-run.
  std::vector<std::uint64_t> versions_seen;

  [[nodiscard]] util::Json to_json() const;
};

/// Runs the load generator (prints the JSON report to stdout, optionally
/// writes it to opts.json_path). Returns 0 on success, 1 on a bitwise
/// mismatch or when no request succeeded.
[[nodiscard]] int run_client_bench(const ClientBenchOptions& opts);

}  // namespace vpr::serve
