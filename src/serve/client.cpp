#include "serve/client.h"

#include <arpa/inet.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <mutex>
#include <set>
#include <thread>
#include <vector>

#include "align/beam.h"
#include "align/recipe_model.h"
#include "obs/quantile.h"
#include "obs/trace.h"
#include "serve/wire.h"
#include "util/log.h"
#include "util/rng.h"

namespace vpr::serve {

namespace {

using Clock = std::chrono::steady_clock;

int connect_to(const std::string& host, int port) {
  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  if (fd < 0) return -1;
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(static_cast<std::uint16_t>(port));
  if (::inet_pton(AF_INET, host.c_str(), &addr.sin_addr) != 1 ||
      ::connect(fd, reinterpret_cast<const sockaddr*>(&addr),
                sizeof(addr)) != 0) {
    ::close(fd);
    return -1;
  }
  const int one = 1;
  ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
  return fd;
}

bool candidates_bitwise_equal(const std::vector<align::BeamCandidate>& a,
                              const std::vector<align::BeamCandidate>& b) {
  if (a.size() != b.size()) return false;
  for (std::size_t i = 0; i < a.size(); ++i) {
    if (a[i].recipes.to_u64() != b[i].recipes.to_u64()) return false;
    if (a[i].log_prob != b[i].log_prob) return false;
  }
  return true;
}

/// Everything one connection thread accumulates; merged under a mutex at
/// the end so the hot path stays contention-free.
struct ConnStats {
  std::uint64_t sent = 0;
  std::uint64_t ok = 0;
  std::uint64_t rejected = 0;
  std::uint64_t timed_out = 0;
  std::uint64_t shutdown = 0;
  std::uint64_t bad_request = 0;
  bool transport_error = false;
  bool bitwise_match = true;
  /// kOk round trips, merged across connections at the end.
  obs::QuantileSketch sketch;
  double rejected_ms_sum = 0.0;
  double retry_after_sum = 0.0;
  std::uint64_t server_version = 0;
  std::uint64_t server_swaps = 0;
  std::set<std::uint64_t> versions_seen;
};

}  // namespace

/// The same spread (normal * 0.5) the decode tests use, with the bias
/// feature pinned to 1.0 like real extracted insight vectors.
std::vector<std::vector<double>> bench_suite_insights(int insight_dim) {
  std::vector<std::vector<double>> insights;
  insights.reserve(kBenchSuiteDesigns);
  for (int design = 1; design <= kBenchSuiteDesigns; ++design) {
    util::Rng rng{util::hash_combine(0x5e27eb43ULL,
                                     static_cast<std::uint64_t>(design))};
    std::vector<double> iv(static_cast<std::size_t>(insight_dim));
    for (double& v : iv) v = rng.normal() * 0.5;
    iv.back() = 1.0;
    insights.push_back(std::move(iv));
  }
  return insights;
}

util::Json ClientBenchResult::to_json() const {
  util::Json j = util::Json::object();
  j["sent"] = static_cast<double>(sent);
  j["ok"] = static_cast<double>(ok);
  j["rejected"] = static_cast<double>(rejected);
  j["timed_out"] = static_cast<double>(timed_out);
  j["shutdown"] = static_cast<double>(shutdown);
  j["bad_request"] = static_cast<double>(bad_request);
  j["transport_errors"] = static_cast<double>(transport_errors);
  j["wall_ms"] = wall_ms;
  j["qps"] = qps;
  j["p50_ms"] = p50_ms;
  j["p95_ms"] = p95_ms;
  j["p99_ms"] = p99_ms;
  j["p999_ms"] = p999_ms;
  j["mean_rejected_ms"] = mean_rejected_ms;
  j["mean_retry_after_ms"] = mean_retry_after_ms;
  j["bitwise_match"] = bitwise_match;
  j["server_version"] = static_cast<double>(server_version);
  j["server_swaps"] = static_cast<double>(server_swaps);
  util::Json versions = util::Json::array();
  for (const std::uint64_t v : versions_seen) {
    versions.push_back(static_cast<double>(v));
  }
  j["versions_seen"] = std::move(versions);
  return j;
}

int run_client_bench(const ClientBenchOptions& opts) {
  if (opts.port <= 0 || opts.connections < 1 || opts.window < 1 ||
      opts.requests < 1 || opts.beam_width < 1) {
    VPR_LOG(Error) << "serve-bench --connect: invalid options";
    return 1;
  }

  // Local oracle over the default seeded model — the model `insightalign
  // serve` runs unless the operator loads a trained one.
  util::Rng rng{7};
  const align::RecipeModel model{align::ModelConfig{}, rng};
  const auto insights = bench_suite_insights(model.config().insight_dim);
  std::vector<std::vector<align::BeamCandidate>> expected;
  if (opts.verify) {
    expected.reserve(insights.size());
    for (const auto& iv : insights) {
      expected.push_back(align::beam_search(model, iv, opts.beam_width));
    }
  }

  std::atomic<std::uint64_t> next_tag{0};
  const auto total = static_cast<std::uint64_t>(opts.requests);
  std::vector<ConnStats> stats(static_cast<std::size_t>(opts.connections));

  const auto t0 = Clock::now();
  std::vector<std::thread> threads;
  threads.reserve(static_cast<std::size_t>(opts.connections));
  for (int c = 0; c < opts.connections; ++c) {
    threads.emplace_back([&, c] {
      ConnStats& s = stats[static_cast<std::size_t>(c)];
      const int fd = connect_to(opts.host, opts.port);
      if (fd < 0) {
        s.transport_error = true;
        return;
      }
      // Every request this connection has in flight: tag for matching the
      // response, trace id for closing the client.request async span.
      struct InFlight {
        std::uint64_t tag = 0;
        std::uint64_t trace_id = 0;
        Clock::time_point sent_at;
      };
      std::vector<InFlight> inflight;
      std::vector<std::uint8_t> encoded;
      std::vector<std::uint8_t> payload;

      // Probe the serving version before any request is in flight, so the
      // very next frame on this connection must be the version info.
      {
        wire::VersionQueryFrame query;
        query.client_tag = static_cast<std::uint64_t>(c);
        encoded.clear();
        wire::encode(query, encoded);
        if (!wire::write_frame(fd, encoded) ||
            !wire::read_frame(fd, payload)) {
          s.transport_error = true;
          ::close(fd);
          return;
        }
        const auto info = wire::decode_version_info(payload);
        if (!info.has_value()) {
          s.transport_error = true;
          ::close(fd);
          return;
        }
        s.server_version = info->model_version;
        s.server_swaps = info->swaps;
      }

      const auto send_one = [&]() -> bool {
        const std::uint64_t tag =
            next_tag.fetch_add(1, std::memory_order_relaxed);
        if (tag >= total) return false;
        wire::RequestFrame request;
        request.beam_width = opts.beam_width;
        request.deadline_ms = opts.deadline_ms;
        request.client_tag = tag;
        // Originate the cross-process trace id here: the server continues
        // it through admit/batch/finish, and trace_merge later fuses the
        // two processes' dumps into one per-request track.
        request.trace_id = obs::TraceRecorder::next_id();
        request.insight =
            insights[static_cast<std::size_t>(tag % insights.size())];
        encoded.clear();
        wire::encode(request, encoded);
        auto& recorder = obs::TraceRecorder::instance();
        if (recorder.enabled()) {
          recorder.async_begin("client.request", "serve", request.trace_id,
                               {{"tag", tag}});
        }
        if (!wire::write_frame(fd, encoded)) {
          s.transport_error = true;
          return false;
        }
        inflight.push_back({tag, request.trace_id, Clock::now()});
        ++s.sent;
        return true;
      };

      const auto recv_one = [&]() -> bool {
        if (!wire::read_frame(fd, payload)) {
          s.transport_error = true;
          return false;
        }
        const auto response = wire::decode_response(payload);
        if (!response.has_value()) {
          s.transport_error = true;
          return false;
        }
        const auto done = Clock::now();
        const auto it = std::find_if(
            inflight.begin(), inflight.end(),
            [&](const auto& p) { return p.tag == response->client_tag; });
        if (it == inflight.end()) {
          s.transport_error = true;  // response to a request never sent
          return false;
        }
        const double rtt_ms =
            std::chrono::duration<double, std::milli>(done - it->sent_at)
                .count();
        const std::uint64_t tag = it->tag;
        auto& recorder = obs::TraceRecorder::instance();
        if (recorder.enabled()) {
          recorder.async_end("client.request", "serve", it->trace_id,
                             {{"status", to_string(response->status)},
                              {"rtt_ms", rtt_ms}});
        }
        inflight.erase(it);
        switch (response->status) {
          case Status::kOk:
            ++s.ok;
            s.sketch.observe(rtt_ms);
            if (response->model_version != 0) {
              s.versions_seen.insert(response->model_version);
            }
            if (opts.verify &&
                !candidates_bitwise_equal(
                    response->candidates,
                    expected[static_cast<std::size_t>(
                        tag % expected.size())])) {
              s.bitwise_match = false;
            }
            break;
          case Status::kRejected:
            ++s.rejected;
            s.rejected_ms_sum += rtt_ms;
            s.retry_after_sum += response->retry_after_ms;
            break;
          case Status::kTimedOut:
            ++s.timed_out;
            break;
          case Status::kShutdown:
            ++s.shutdown;
            break;
          case Status::kBadRequest:
            ++s.bad_request;
            break;
        }
        return true;
      };

      // Fill the window, then lockstep send-on-receive until the global
      // request budget runs out; finally drain what is still in flight.
      bool more = true;
      while (more && static_cast<int>(inflight.size()) < opts.window) {
        more = send_one();
        if (s.transport_error) break;
      }
      while (!s.transport_error && !inflight.empty()) {
        if (!recv_one()) break;
        if (more) more = send_one();
      }
      ::close(fd);
    });
  }
  for (auto& t : threads) t.join();
  const double wall_ms =
      std::chrono::duration<double, std::milli>(Clock::now() - t0).count();

  ClientBenchResult result;
  obs::QuantileSketch merged_sketch;
  std::set<std::uint64_t> versions_seen;
  for (const ConnStats& s : stats) {
    merged_sketch.merge(s.sketch);
    result.sent += s.sent;
    result.ok += s.ok;
    result.rejected += s.rejected;
    result.timed_out += s.timed_out;
    result.shutdown += s.shutdown;
    result.bad_request += s.bad_request;
    if (s.transport_error) ++result.transport_errors;
    result.bitwise_match = result.bitwise_match && s.bitwise_match;
    result.mean_rejected_ms += s.rejected_ms_sum;
    result.mean_retry_after_ms += s.retry_after_sum;
    result.server_version = std::max(result.server_version, s.server_version);
    result.server_swaps = std::max(result.server_swaps, s.server_swaps);
    versions_seen.insert(s.versions_seen.begin(), s.versions_seen.end());
  }
  result.versions_seen.assign(versions_seen.begin(), versions_seen.end());
  result.wall_ms = wall_ms;
  if (result.ok > 0 && wall_ms > 0.0) {
    result.qps = 1000.0 * static_cast<double>(result.ok) / wall_ms;
  }
  result.p50_ms = merged_sketch.quantile(0.50);
  result.p95_ms = merged_sketch.quantile(0.95);
  result.p99_ms = merged_sketch.quantile(0.99);
  result.p999_ms = merged_sketch.quantile(0.999);
  if (result.rejected > 0) {
    result.mean_rejected_ms /= static_cast<double>(result.rejected);
    result.mean_retry_after_ms /= static_cast<double>(result.rejected);
  }

  const util::Json j = result.to_json();
  if (!opts.json_path.empty()) {
    std::ofstream os{opts.json_path};
    j.write(os);
    os << '\n';
  }
  const std::string report = j.dump() + "\n";
  std::fputs(report.c_str(), stdout);
  std::fflush(stdout);

  if (!result.bitwise_match) {
    VPR_LOG(Error) << "serve-bench --connect: responses are not bitwise "
                      "identical to the local beam_search oracle";
    return 1;
  }
  return result.ok > 0 ? 0 : 1;
}

}  // namespace vpr::serve
