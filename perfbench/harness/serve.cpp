// serve_socket: an open loop over loopback TCP into an in-process
// serve::Server with a 2-replica Router. A seeded Poisson schedule plays
// three fixed absolute rates, low, mid and over (above capacity, so
// shedding engages), in one-second cycles; blocks of those cycles
// alternate with a closed loop that measures capacity. The generator is
// this process with two connections and two threads (open loop: one sends
// on schedule, one receives; closed loop: one per connection), so
// generator and server fit a 4-core host. The flow does no work here:
// decode, batcher, router and wire do.

#include <arpa/inet.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <poll.h>
#include <sys/socket.h>
#include <unistd.h>

#include <atomic>
#include <memory>
#include <random>
#include <thread>

#include "align/beam.h"
#include "align/recipe_model.h"
#include "common.h"
#include "flow/eval.h"
#include "flow/flow.h"
#include "inputs.h"
#include "insight/insight.h"
#include "layers.h"
#include "obs/trace.h"
#include "serve/server.h"
#include "serve/wire.h"
#include "util/rng.h"

namespace perfbench {
namespace {

namespace wire = vpr::serve::wire;
using vpr::serve::Status;

struct Rate {
  const char* name;
  double rps;
  double share;  // of a cycle
  bool limit_deadline;
};
// Fixed absolute rates: about 1/4, 3/5 and 1.4x of the closed-loop
// capacity of a 2-replica width-5 server on a 4-vCPU x86-64 host (about
// 3500/s, see README.md). The open loop is a train of one-second cycles,
// each playing the three rates back to back and then pausing so the over
// rate's queue drains before the next low window. Every rate thus gets one
// window per cycle spread over the whole run, and its statistics are taken
// over those windows (medians, unless noted): a stall of the shared host
// lasting a few seconds moves a few windows, not the run.
constexpr Rate kRates[] = {{"low", 800.0, 0.35, false},
                           {"mid", 2000.0, 0.4, false},
                           {"over", 5000.0, 0.15, true}};
constexpr double kCycleSeconds = 1.0;  // the remaining 0.1 s is the pause
constexpr double kOpenLoopShare = 0.7;  // of --seconds; the rest saturates
// The run alternates kBlocks times between open-loop cycles and a closed
// loop, so the capacity windows too are spread over the whole run.
constexpr int kBlocks = 4;
// p99 latency limit of the capacity metric. Over-rate requests carry a
// deadline kWireMarginMs below it, so the server refuses what it cannot
// finish in time and what it admits still arrives within the limit.
constexpr double kLimitMs = 25.0;
constexpr double kWireMarginMs = 5.0;
constexpr int kBeamWidth = 5;
constexpr int kInsightPool = 24;  // distinct probed design variants
constexpr int kPoolDesigns[] = {11, 16, 4, 14, 6, 8};
constexpr int kConnections = 2;
constexpr int kSaturateWindow = 8;  // requests in flight per connection

struct Sent {
  std::int64_t scheduled_ns = 0;
  std::int64_t sent_ns = 0;
  std::int64_t done_ns = -1;
  int insight = 0;
  int phase = 0;
  int window = 0;  // the cycle the request was scheduled in
  std::uint64_t trace_id = 0;
  Status status = Status::kShutdown;
  bool correct = false;
  double queue_ms = 0.0;
};

std::int64_t now_ns() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             Clock::now().time_since_epoch())
      .count();
}

int connect_loopback(int port) {
  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  if (fd < 0) return -1;
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(static_cast<std::uint16_t>(port));
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  if (::connect(fd, reinterpret_cast<const sockaddr*>(&addr),
                sizeof(addr)) != 0) {
    ::close(fd);
    return -1;
  }
  const int one = 1;
  ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
  return fd;
}

struct Pool {
  std::vector<std::vector<double>> insights;
  std::vector<std::vector<vpr::align::BeamCandidate>> oracle;
};

bool same_candidates(const std::vector<vpr::align::BeamCandidate>& a,
                     const std::vector<vpr::align::BeamCandidate>& b) {
  if (a.size() != b.size()) return false;
  for (std::size_t i = 0; i < a.size(); ++i) {
    if (a[i].recipes != b[i].recipes || a[i].log_prob != b[i].log_prob) {
      return false;
    }
  }
  return true;
}

/// Open-loop cycles of a run: a whole number per block.
int cycles_for(double seconds) {
  const int per_block = static_cast<int>(kOpenLoopShare * seconds /
                                         kCycleSeconds / kBlocks);
  return kBlocks * std::max(1, per_block);
}

/// The seeded open-loop schedule: Poisson arrivals per rate, the rates
/// back to back within each cycle.
std::vector<Sent> make_schedule(const InputGen& gen, int cycles) {
  std::vector<Sent> schedule;
  std::mt19937_64 rng{gen.stream(0x5c4ed01eULL)};
  std::uniform_int_distribution<int> pick{0, kInsightPool - 1};
  for (int c = 0; c < cycles; ++c) {
    double t = c * kCycleSeconds;
    for (int p = 0; p < static_cast<int>(std::size(kRates)); ++p) {
      const double end = t + kRates[p].share * kCycleSeconds;
      std::exponential_distribution<double> gap{kRates[p].rps};
      for (t += gap(rng); t < end; t += gap(rng)) {
        Sent s;
        s.scheduled_ns = static_cast<std::int64_t>(t * 1e9);
        s.insight = pick(rng);
        s.phase = p;
        s.window = c;
        schedule.push_back(s);
      }
      t = end;
    }
  }
  return schedule;
}

struct RunStats {
  double cpu_s = 0.0;
  std::vector<double> lag_ms;  // generator lateness, one per request
};

/// Plays block `block` of `schedule` (its cycles, shifted to start now)
/// against the server: one thread sends on schedule over kConnections
/// sockets, one thread receives and checks every response.
void play(int port, const Pool& pool, std::vector<Sent>& schedule,
          int cycles, int block, RunStats& stats, Result& out) {
  const int per_block = cycles / kBlocks;
  std::size_t first = 0;
  while (first < schedule.size() &&
         schedule[first].window < block * per_block) {
    ++first;
  }
  std::size_t last = first;
  while (last < schedule.size() &&
         schedule[last].window < (block + 1) * per_block) {
    ++last;
  }
  if (first == last) return;
  const auto block_ns = static_cast<std::int64_t>(
      block * per_block * kCycleSeconds * 1e9);
  int fds[kConnections];
  for (int& fd : fds) {
    fd = connect_loopback(port);
    if (fd < 0) throw std::runtime_error("cannot connect to the server");
  }
  std::atomic<std::size_t> received{0};
  std::atomic<bool> send_failed{false};
  const double cpu0 = cpu_seconds();
  // Times stay relative to the first cycle of the run; the block starts
  // after a 20 ms lead-in.
  const std::int64_t start = now_ns() + 20'000'000 - block_ns;

  std::thread receiver([&] {
    wire::FrameReader readers[kConnections];
    std::vector<std::uint8_t> buf(1 << 16);
    std::vector<std::uint8_t> payload;
    pollfd pfd[kConnections];
    for (int c = 0; c < kConnections; ++c) pfd[c] = {fds[c], POLLIN, 0};
    const auto deadline_of_last = [&] {
      return start + schedule[last - 1].scheduled_ns + 10'000'000'000LL;
    };
    while (received.load() < last - first && !send_failed.load() &&
           now_ns() < deadline_of_last()) {
      if (::poll(pfd, kConnections, 100) <= 0) continue;
      for (int c = 0; c < kConnections; ++c) {
        if ((pfd[c].revents & (POLLIN | POLLHUP | POLLERR)) == 0) continue;
        const ssize_t n = ::recv(fds[c], buf.data(), buf.size(), 0);
        if (n <= 0) {
          pfd[c].fd = -1;
          continue;
        }
        const std::int64_t t = now_ns();
        vpr::obs::TraceSpan span{"client.recv", "bench"};
        readers[c].feed({buf.data(), static_cast<std::size_t>(n)});
        while (readers[c].next(payload)) {
          const auto r = wire::decode_response(payload);
          if (!r.has_value() || r->client_tag >= schedule.size()) continue;
          Sent& s = schedule[r->client_tag];
          if (s.done_ns >= 0) continue;
          s.done_ns = t - start;
          s.status = r->status;
          s.queue_ms = r->queue_ms;
          s.correct = r->status != Status::kOk ||
                      same_candidates(r->candidates,
                                      pool.oracle[static_cast<std::size_t>(
                                          s.insight)]);
          received.fetch_add(1);
        }
      }
    }
  });

  std::vector<std::uint8_t> encoded;
  for (std::size_t i = first; i < last; ++i) {
    Sent& s = schedule[i];
    const auto due = Clock::time_point{} +
                     std::chrono::nanoseconds(start + s.scheduled_ns);
    std::this_thread::sleep_until(due);
    vpr::obs::TraceSpan span{"client.send", "bench"};
    wire::RequestFrame frame;
    frame.priority = vpr::serve::Priority::kNormal;
    frame.beam_width = kBeamWidth;
    frame.deadline_ms = kRates[s.phase].limit_deadline
                            ? static_cast<std::uint32_t>(kLimitMs -
                                                         kWireMarginMs)
                            : 0;
    frame.client_tag = i;
    frame.trace_id = vpr::obs::TraceRecorder::next_id();
    frame.insight = pool.insights[static_cast<std::size_t>(s.insight)];
    s.trace_id = frame.trace_id;
    encoded.clear();
    wire::encode(frame, encoded);
    s.sent_ns = now_ns() - start;
    stats.lag_ms.push_back(static_cast<double>(s.sent_ns - s.scheduled_ns) /
                           1e6);
    if (!wire::write_frame(fds[i % kConnections], encoded)) {
      send_failed.store(true);
      break;
    }
  }
  receiver.join();
  for (const int fd : fds) ::close(fd);
  if (send_failed.load()) out.fail("a connection failed while sending");
  stats.cpu_s += cpu_seconds() - cpu0;
}

/// Capacity: a closed loop over kConnections connections, each keeping
/// kSaturateWindow requests in flight (one thread per connection), for
/// `seconds`. Appends each window's kOk responses within the latency limit
/// per second to `windows`; wrong or refused responses fail the run.
void saturate(int port, const Pool& pool, const InputGen& gen, int block,
              double seconds, std::vector<double>& windows, Result& out) {
  constexpr int kWindows = 10;
  const std::int64_t start = now_ns();
  const auto end_ns = start + static_cast<std::int64_t>(seconds * 1e9);
  std::vector<std::vector<double>> within(kConnections,
                                          std::vector<double>(kWindows));
  std::vector<std::uint64_t> sent(kConnections), bad(kConnections);
  std::vector<std::thread> threads;
  for (int c = 0; c < kConnections; ++c) {
    threads.emplace_back([&, c] {
      const int fd = connect_loopback(port);
      if (fd < 0) {
        bad[c] = 1;
        return;
      }
      std::mt19937_64 rng{gen.stream(
          0x5a7ULL + static_cast<unsigned>(kConnections * block + c))};
      std::uniform_int_distribution<int> pick{0, kInsightPool - 1};
      std::vector<std::uint8_t> encoded, payload;
      std::vector<std::pair<int, std::int64_t>> inflight;  // by client_tag
      std::size_t head = 0;
      const auto send = [&] {
        wire::RequestFrame frame;
        frame.beam_width = kBeamWidth;
        frame.client_tag = inflight.size();
        const int insight = pick(rng);
        frame.insight = pool.insights[static_cast<std::size_t>(insight)];
        encoded.clear();
        wire::encode(frame, encoded);
        inflight.push_back({insight, now_ns()});
        ++sent[c];
        return wire::write_frame(fd, encoded);
      };
      bool ok = true;
      for (int i = 0; i < kSaturateWindow && ok; ++i) ok = send();
      while (ok && head < inflight.size()) {
        if (!wire::read_frame(fd, payload)) break;
        const auto r = wire::decode_response(payload);
        if (!r.has_value() || r->client_tag != head) break;
        const auto [insight, sent_at] = inflight[head++];
        const std::int64_t t = now_ns();
        if (r->status != Status::kOk ||
            !same_candidates(r->candidates,
                             pool.oracle[static_cast<std::size_t>(insight)])) {
          ++bad[c];
        } else if (static_cast<double>(t - sent_at) / 1e6 <= kLimitMs &&
                   t < end_ns) {
          const auto w = static_cast<std::size_t>(
              static_cast<double>(t - start) / (seconds * 1e9) * kWindows);
          within[c][std::min<std::size_t>(w, kWindows - 1)] += 1.0;
        }
        if (t < end_ns) ok = send();
      }
      if (head < inflight.size()) bad[c] += inflight.size() - head;
      ::close(fd);
    });
  }
  for (auto& t : threads) t.join();
  std::vector<double> per_window;
  for (int w = 0; w < kWindows; ++w) {
    double n = 0.0;
    for (int c = 0; c < kConnections; ++c) n += within[c][w];
    per_window.push_back(n / (seconds / kWindows));
  }
  std::uint64_t total_sent = 0, total_bad = 0;
  for (int c = 0; c < kConnections; ++c) {
    total_sent += sent[c];
    total_bad += bad[c];
  }
  out.attempted += total_sent;
  if (total_bad > 0) {
    out.fail(std::to_string(total_bad) + " failed requests at saturation",
             total_bad);
  }
  std::printf("serve_socket saturate block %d (%d connections x %d in "
              "flight): sent %llu failed %llu, within %.0f ms (windows",
              block, kConnections, kSaturateWindow,
              static_cast<unsigned long long>(total_sent),
              static_cast<unsigned long long>(total_bad), kLimitMs);
  for (const double w : per_window) std::printf(" %.0f", w);
  std::printf(")/s\n");
  windows.insert(windows.end(), per_window.begin(), per_window.end());
}

struct Phase {
  std::uint64_t sent = 0, ok = 0, shed = 0, failed = 0;
  std::vector<double> latency_ms;  // kOk, from the scheduled send time
  std::vector<double> queue_ms;    // kOk, server-reported
  // Per-window kOk latencies and kOk-within-limit counts.
  std::vector<std::vector<double>> window_ms;
  std::vector<double> window_within;
  double window_s = 0.0;

  /// The `over`-quantile (median by default) over windows of the window's
  /// q-quantile latency.
  [[nodiscard]] double latency(double q, double over = 0.5) const {
    std::vector<double> v;
    for (const auto& w : window_ms) v.push_back(percentile(w, q));
    return percentile(v, over);
  }
  /// Median over windows of kOk responses within the limit per second.
  [[nodiscard]] double goodput() const {
    std::vector<double> v;
    for (const double n : window_within) v.push_back(n / window_s);
    return median(v);
  }
};

std::vector<Phase> summarize(const std::vector<Sent>& schedule, int cycles) {
  std::vector<Phase> phases(std::size(kRates));
  for (std::size_t p = 0; p < phases.size(); ++p) {
    phases[p].window_s = kRates[p].share * kCycleSeconds;
    phases[p].window_ms.resize(static_cast<std::size_t>(cycles));
    phases[p].window_within.resize(static_cast<std::size_t>(cycles));
  }
  for (const Sent& s : schedule) {
    Phase& ph = phases[static_cast<std::size_t>(s.phase)];
    ++ph.sent;
    const bool refused = s.status == Status::kRejected ||
                         s.status == Status::kTimedOut;
    if (s.done_ns < 0 || !s.correct ||
        (s.status != Status::kOk &&
         !(refused && kRates[s.phase].limit_deadline))) {
      ++ph.failed;  // missing, wrong, or refused below the over rate
      continue;
    }
    if (s.status != Status::kOk) {
      ++ph.shed;
      continue;
    }
    ++ph.ok;
    const double ms = static_cast<double>(s.done_ns - s.scheduled_ns) / 1e6;
    ph.latency_ms.push_back(ms);
    ph.queue_ms.push_back(s.queue_ms);
    const auto w = static_cast<std::size_t>(s.window);
    ph.window_ms[w].push_back(ms);
    if (ms <= kLimitMs) ph.window_within[w] += 1.0;
  }
  return phases;
}

}  // namespace

void run_serve_socket(const Options& opt, Result& out) {
  const InputGen gen{opt.seed};
  vpr::util::Rng model_rng{gen.stream(0x30de1ULL)};
  const vpr::align::RecipeModel model{vpr::align::ModelConfig{}, model_rng};
  Pool pool;
  std::unique_ptr<vpr::serve::Server> server;
  // Set-up: probe the insight pool from distinct design variants (cold)
  // and start the 2-replica server on an ephemeral loopback port.
  const double setup_s = median_setup_seconds("serve_socket", 7, [&] {
    server.reset();
    vpr::flow::FlowEval::shared().clear();
    pool.insights.clear();
    std::vector<std::unique_ptr<vpr::flow::Design>> designs;
    std::vector<const vpr::flow::Design*> views;
    {
      // Each probe on the next CPU; the server's threads, started below,
      // get the full CPU set back.
      CpuRotation cpus;
      for (int v = 0; v < kInsightPool; ++v) {
        cpus.next();
        designs.push_back(std::make_unique<vpr::flow::Design>(gen.variant(
            kPoolDesigns[v % std::size(kPoolDesigns)], 1000 + v)));
        const vpr::flow::Design& design = *designs.back();
        views.push_back(&design);
        const auto vec = vpr::insight::analyze(
            design, vpr::flow::FlowEval::shared().probe(design));
        pool.insights.emplace_back(vec.begin(), vec.end());
      }
    }
    require_distinct_designs(views, out);
    vpr::serve::ServerConfig config;
    config.router.replicas = 2;
    server = std::make_unique<vpr::serve::Server>(model, config);
  });
  for (const auto& iv : pool.insights) {
    pool.oracle.push_back(vpr::align::beam_search(model, iv, kBeamWidth));
  }

  const int cycles = cycles_for(opt.seconds);
  std::vector<Sent> schedule = make_schedule(gen, cycles);
  RunStats run;
  std::vector<double> capacity_windows;
  for (int b = 0; b < kBlocks; ++b) {
    play(server->port(), pool, schedule, cycles, b, run, out);
    // The closed loop runs in untraced runs only; a traced run spends that
    // time replaying the schedule with tracing on.
    if (!opt.trace) {
      saturate(server->port(), pool, gen, b,
               (1.0 - kOpenLoopShare) * opt.seconds / kBlocks,
               capacity_windows, out);
    }
  }
  const double capacity = median(capacity_windows);
  const auto phases = summarize(schedule, cycles);
  const double repeat_share =
      1.0 - static_cast<double>(kInsightPool) /
                static_cast<double>(std::max<std::size_t>(1, schedule.size()));
  for (std::size_t p = 0; p < phases.size(); ++p) {
    const Phase& ph = phases[p];
    out.attempted += ph.sent;
    out.failed += ph.failed;
    if (ph.failed > 0) {
      out.fail(std::to_string(ph.failed) + " failed requests at the " +
               kRates[p].name + " rate", 0);
    }
    std::printf("serve_socket %-4s %6.0f req/s: sent %llu ok %llu shed %llu "
                "failed %llu, p50 %.3f p90 %.3f p99 %.3f ms (window "
                "medians), p99.9 %.3f ms, within %.0f ms %.1f/s\n",
                kRates[p].name, kRates[p].rps,
                static_cast<unsigned long long>(ph.sent),
                static_cast<unsigned long long>(ph.ok),
                static_cast<unsigned long long>(ph.shed),
                static_cast<unsigned long long>(ph.failed),
                ph.latency(0.5), ph.latency(0.9), ph.latency(0.99),
                percentile(ph.latency_ms, 0.999), kLimitMs, ph.goodput());
  }
  if (!capacity_windows.empty()) {
    std::printf("serve_socket: capacity %.1f/s (median of %zu windows)\n",
                capacity, capacity_windows.size());
  }
  std::printf("serve_socket: generator lag p99 %.3f ms, repeated inputs "
              "%.3f\n",
              percentile(run.lag_ms, 0.99), repeat_share);
  const Phase& low = phases[0];
  const Phase& mid = phases[1];

  if (!opt.trace) {
    server->stop();
    out.set("setup_s", setup_s, "s");
    // Latency at the low rate: the first quartile over the cycles of the
    // cycle's median. On a shared 4-vCPU host the cycle medians of one run
    // sat on a floor (about 1.1 ms) with bursts of the host's load adding
    // up to 3 ms to a third or more of the cycles, so the median over
    // cycles moved by a third between runs. Interference only adds
    // latency, so the quieter quarter of the cycles tracks the server's own
    // latency; a slower server raises every cycle, that quarter included.
    // (The mid-rate median moved 5x with the host's load: per layer.)
    out.set("latency_ms", low.latency(0.5, 0.25), "ms");
    out.set("throughput_per_s", capacity, "1/s");
    out.set("peak_rss_mb", peak_rss_mb(), "MB");
    return;
  }

  // Traced replay of the same schedule. The router's counters accumulate
  // from server start, so the replica split is taken as a difference.
  for (Sent& s : schedule) {
    s = Sent{s.scheduled_ns, 0, -1, s.insight, s.phase, s.window};
  }
  const auto before = server->router().counters();
  auto& recorder = vpr::obs::TraceRecorder::instance();
  recorder.clear();
  recorder.set_enabled(true);
  const std::int64_t t0 = vpr::obs::TraceRecorder::now_us();
  RunStats traced;
  for (int b = 0; b < kBlocks; ++b) {
    play(server->port(), pool, schedule, cycles, b, traced, out);
  }
  const std::int64_t t1 = vpr::obs::TraceRecorder::now_us();
  recorder.set_enabled(false);
  const auto after = server->router().counters();
  server->stop();
  const auto tphases = summarize(schedule, cycles);
  const LayerTable table = reduce_trace(recorder.snapshot(), t0, t1);
  print_layer_table("serve_socket", table);

  LayerInputs in;
  in.table = &table;
  in.untraced_wall_s = run.cpu_s;  // open loop: compare CPU, not wall
  in.traced_wall_s = traced.cpu_s;
  in.repeat_share = repeat_share;
  fill_common_layers(in, out);

  // Network share of a mid-rate request: client round trip minus the
  // server's serve.request span, matched by trace id.
  std::vector<double> net_ms;
  const auto requests = table.async.find("serve.request");
  for (const Sent& s : schedule) {
    if (s.phase != 1 || s.status != Status::kOk ||
        requests == table.async.end()) {
      continue;
    }
    const auto it = requests->second.find(s.trace_id);
    if (it == requests->second.end() || it->second.end_us < 0) continue;
    const double rtt_ms = static_cast<double>(s.done_ns - s.sent_ns) / 1e6;
    const double server_ms =
        static_cast<double>(it->second.end_us - it->second.begin_us) / 1e3;
    net_ms.push_back(rtt_ms - server_ms);
  }
  const Phase& tmid = tphases[1];
  const Phase& tover = tphases[2];
  out.set_layer("serve.queue_ms.p50", median(tmid.queue_ms), "ms");
  out.set_layer("serve.queue_ms.p99", percentile(tmid.queue_ms, 0.99), "ms");
  const SpanStats& ticks = table.span("serve.tick");
  out.set_layer("serve.batch_self_ms",
                ticks.count == 0 ? 0.0
                                 : ticks.self_ms /
                                       static_cast<double>(ticks.count),
                "ms");
  out.set_layer("serve.net_ms.p50", median(net_ms), "ms");
  double max_done = 0.0, sum_done = 0.0;
  for (std::size_t r = 0; r < after.replica.size(); ++r) {
    const auto done = static_cast<double>(after.replica[r].completed -
                                          before.replica[r].completed);
    max_done = std::max(max_done, done);
    sum_done += done;
  }
  out.set_layer("serve.replica_imbalance",
                sum_done > 0.0 ? max_done * after.replica.size() / sum_done -
                                     1.0
                               : 0.0,
                "ratio");
  out.set_layer("serve.shed_frac",
                static_cast<double>(tover.shed) /
                    static_cast<double>(std::max<std::uint64_t>(1, tover.sent)),
                "ratio");
  std::uint64_t sent = 0, failed = 0;
  for (std::size_t p = 0; p < tphases.size(); ++p) {
    sent += tphases[p].sent;
    failed += tphases[p].failed;
    if (tphases[p].failed > 0) {
      out.fail(std::to_string(tphases[p].failed) +
                   " failed requests at the traced " + kRates[p].name +
                   " rate",
               tphases[p].failed);
    }
  }
  out.attempted += sent;
  out.set_layer("serve.fail_frac",
                static_cast<double>(failed) /
                    static_cast<double>(std::max<std::uint64_t>(1, sent)),
                "ratio");
  out.set_layer("serve.gen_lag_ms.p99", percentile(traced.lag_ms, 0.99),
                "ms");
  // The mid-rate latencies swing with the host's scheduling stalls far
  // beyond a tenth between runs: reported here (untraced run), not end to
  // end.
  out.set_layer("serve.p50_ms.mid", mid.latency(0.5), "ms");
  out.set_layer("serve.p99_ms.mid", mid.latency(0.99), "ms");
  out.set_layer("serve.p99_ms.low", percentile(low.latency_ms, 0.99), "ms");
}

}  // namespace perfbench
