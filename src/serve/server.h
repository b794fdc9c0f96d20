#pragma once
// TCP front door for the sharded serving tier: accepts connections on a
// listening socket, decodes length-prefixed request frames (serve::wire),
// places them through a serve::Router, and streams the responses back.
//
// Threading: one accept thread plus two threads per live connection — a
// reader that parses frames and submits to the router, and a writer that
// resolves the submission futures in FIFO order and sends the response
// frames. FIFO resolution means responses go out in request order per
// connection (client_tag still lets clients match out-of-order if the
// protocol ever relaxes this), and a slow decode simply delays the
// writer, never the router. A connection may pipeline up to
// kMaxPipelined requests; beyond that the reader stops reading, pushing
// backpressure into the kernel socket buffer and ultimately the client.
// A connection whose threads or buffers cannot be created (thread limit,
// address-space limit) is closed at once and counted in
// ServerStats::setup_failures; the acceptor keeps accepting.
//
// Admin surface: stats-query frames (wire::kStatsQueryFrame) are
// answered off the decode queue — like version probes — with the JSON
// status document, and `admin_port >= 0` additionally starts an
// AdminServer exposing the same document plus Prometheus /metrics and
// /healthz over HTTP. An unknown-but-well-framed frame type is answered
// in-band with kBadRequest and the connection survives; only genuine
// framing corruption (bad length prefix, truncated payload of a known
// type) kills the stream.
//
// Shutdown (stop(), also the destructor): stop the admin listener, close
// the listener, shut down every connection's read side so readers see
// EOF and stop admitting, let writers drain every response already in
// flight, join, then stop the router (which drains its replicas).
// Nothing submitted before stop() is dropped — the CI smoke asserts a
// clean SIGTERM drain.

#include <atomic>
#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "serve/admin.h"
#include "serve/router.h"

namespace vpr::serve {

struct ServerConfig {
  RouterConfig router;
  /// IPv4 dotted-quad bind address. Loopback by default: exposing the
  /// recommender beyond the host is an explicit operator decision.
  std::string host = "127.0.0.1";
  /// 0 binds an ephemeral port (tests); port() reports the actual one.
  int port = 0;
  /// HTTP admin listener port on `host`: -1 disables it, 0 binds an
  /// ephemeral port (admin_port() reports the actual one).
  int admin_port = -1;
};

/// Per-server traffic totals (process-wide counterparts live in the
/// metrics registry as serve.net.*).
struct ServerStats {
  std::uint64_t connections = 0;
  std::uint64_t requests = 0;
  std::uint64_t protocol_errors = 0;
  std::uint64_t bad_requests = 0;
  /// Connections closed at accept because their reader/writer threads or
  /// buffers could not be created; the server keeps accepting.
  std::uint64_t setup_failures = 0;
};

class Server {
 public:
  /// Requests a connection may have in flight before its reader stops
  /// reading (socket-buffer backpressure).
  static constexpr std::size_t kMaxPipelined = 1024;

  /// Serves a copy of `model` as version 1 of an in-memory registry.
  Server(const align::RecipeModel& model, ServerConfig config);
  /// Binds and starts accepting immediately; throws std::runtime_error
  /// when the socket cannot be bound. The fleet hot-swaps to versions
  /// published into `registry`, and connections can probe the serving
  /// version with a wire::VersionQueryFrame (answered immediately, in
  /// pipeline order).
  Server(std::shared_ptr<ModelRegistry> registry, ServerConfig config);
  ~Server();
  Server(const Server&) = delete;
  Server& operator=(const Server&) = delete;

  /// The bound port (resolves port 0 to the kernel-assigned one).
  [[nodiscard]] int port() const noexcept { return port_; }
  /// The admin listener's bound port, or -1 when disabled.
  [[nodiscard]] int admin_port() const noexcept {
    return admin_ != nullptr ? admin_->port() : -1;
  }
  [[nodiscard]] Router& router() noexcept { return router_; }
  [[nodiscard]] ServerStats stats() const;

  /// The /healthz document: drain + overload state. {"status": "ok" |
  /// "overloaded" | "draining", utilization, replicas, ...}.
  [[nodiscard]] std::string healthz_json() const;
  /// The /statusz document (also the wire::StatsFrame payload): server
  /// totals, router counters with per-replica occupancy, and registry
  /// versions + the A/B table.
  [[nodiscard]] std::string statusz_json() const;

  /// Graceful drain; idempotent, thread-safe (the CLI calls it from the
  /// SIGTERM path).
  void stop();

 private:
  struct Pending {
    /// Probes (version / stats) are answered without a future, but still
    /// routed through the pending queue so responses keep pipeline order.
    enum class Kind { kRequest, kVersionQuery, kStatsQuery };
    Kind kind = Kind::kRequest;
    std::uint64_t client_tag = 0;
    std::future<Response> future;
  };
  struct Connection {
    int fd = -1;
    std::unique_ptr<util::MpmcQueue<Pending>> pending;
    std::thread reader;
    std::thread writer;
    /// Threads that have finished (2 = safe to join + reap).
    std::atomic<int> exited{0};
  };

  void accept_loop();
  /// Build a connection for `fd` and start its reader and writer. On a
  /// throw nothing is left behind: a started reader is joined and no
  /// Connection is kept; the caller still owns and closes `fd`.
  void start_connection(int fd);
  void reader_loop(Connection& conn);
  void writer_loop(Connection& conn);
  /// Join and erase connections whose threads have both exited.
  void reap_finished();

  ServerConfig config_;
  Router router_;
  std::unique_ptr<AdminServer> admin_;
  int listen_fd_ = -1;
  int port_ = 0;
  std::atomic<bool> closing_{false};
  std::mutex stop_mutex_;  // serializes concurrent stop() calls
  std::thread acceptor_;

  mutable std::mutex connections_mutex_;
  std::vector<std::unique_ptr<Connection>> connections_;

  std::atomic<std::uint64_t> connections_total_{0};
  std::atomic<std::uint64_t> requests_{0};
  std::atomic<std::uint64_t> protocol_errors_{0};
  std::atomic<std::uint64_t> bad_requests_{0};
  std::atomic<std::uint64_t> setup_failures_{0};
};

}  // namespace vpr::serve
