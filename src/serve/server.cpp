#include "serve/server.h"

#include <arpa/inet.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <sys/socket.h>
#include <unistd.h>

#include <cerrno>
#include <chrono>
#include <cstring>
#include <sstream>
#include <stdexcept>
#include <utility>

#include "obs/metrics.h"
#include "obs/trace.h"
#include "serve/registry.h"
#include "serve/wire.h"
#include "util/json.h"
#include "util/log.h"

namespace vpr::serve {

namespace {

/// Pending-connection queue length passed to listen().
constexpr int kListenBacklog = 64;

struct NetMetrics {
  obs::Counter& connections;
  obs::Counter& requests;
  obs::Counter& protocol_errors;
  obs::Counter& bad_requests;
  obs::Counter& setup_failures;

  static NetMetrics& get() {
    static auto& r = obs::MetricsRegistry::instance();
    static NetMetrics m{
        r.counter("serve.net.connections", "TCP connections accepted"),
        r.counter("serve.net.requests", "request frames decoded"),
        r.counter("serve.net.protocol_errors",
                  "connections dropped for malformed framing"),
        r.counter("serve.net.bad_requests",
                  "well-framed requests with invalid contents "
                  "(answered kBadRequest)"),
        r.counter("serve.net.setup_failures",
                  "connections closed because their threads or buffers "
                  "could not be created"),
    };
    return m;
  }
};

}  // namespace

Server::Server(const align::RecipeModel& model, ServerConfig config)
    : Server(ModelRegistry::holding(model), std::move(config)) {}

Server::Server(std::shared_ptr<ModelRegistry> registry, ServerConfig config)
    : config_(std::move(config)),
      router_(std::move(registry), config_.router) {
  listen_fd_ = ::socket(AF_INET, SOCK_STREAM, 0);
  if (listen_fd_ < 0) {
    throw std::runtime_error("Server: socket() failed");
  }
  const int one = 1;
  ::setsockopt(listen_fd_, SOL_SOCKET, SO_REUSEADDR, &one, sizeof(one));

  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(static_cast<std::uint16_t>(config_.port));
  if (::inet_pton(AF_INET, config_.host.c_str(), &addr.sin_addr) != 1) {
    ::close(listen_fd_);
    throw std::runtime_error("Server: invalid bind address " + config_.host);
  }
  if (::bind(listen_fd_, reinterpret_cast<const sockaddr*>(&addr),
             sizeof(addr)) != 0 ||
      ::listen(listen_fd_, kListenBacklog) != 0) {
    const int err = errno;
    ::close(listen_fd_);
    throw std::runtime_error("Server: cannot listen on " + config_.host +
                             ":" + std::to_string(config_.port) + " (" +
                             std::strerror(err) + ")");
  }
  sockaddr_in bound{};
  socklen_t len = sizeof(bound);
  ::getsockname(listen_fd_, reinterpret_cast<sockaddr*>(&bound), &len);
  port_ = ntohs(bound.sin_port);

  if (config_.admin_port >= 0) {
    AdminHandlers handlers;
    handlers.metrics_text = [] {
      std::ostringstream os;
      obs::MetricsRegistry::instance().write_prometheus(os);
      return os.str();
    };
    handlers.healthz_json = [this] { return healthz_json(); };
    handlers.statusz_json = [this] { return statusz_json(); };
    handlers.draining = [this] {
      return closing_.load(std::memory_order_acquire);
    };
    try {
      admin_ = std::make_unique<AdminServer>(
          config_.host, config_.admin_port, std::move(handlers));
    } catch (...) {
      ::close(listen_fd_);  // acceptor not started yet; don't leak the fd
      throw;
    }
  }

  // Register the serve.net.* series now: the acceptor must not make its
  // first allocation for them while a connection is failing for want of
  // memory.
  (void)NetMetrics::get();
  acceptor_ = std::thread([this] { accept_loop(); });
}

Server::~Server() { stop(); }

ServerStats Server::stats() const {
  ServerStats s;
  s.connections = connections_total_.load(std::memory_order_relaxed);
  s.requests = requests_.load(std::memory_order_relaxed);
  s.protocol_errors = protocol_errors_.load(std::memory_order_relaxed);
  s.bad_requests = bad_requests_.load(std::memory_order_relaxed);
  s.setup_failures = setup_failures_.load(std::memory_order_relaxed);
  return s;
}

std::string Server::healthz_json() const {
  const bool draining = closing_.load(std::memory_order_acquire);
  const double utilization = router_.utilization();
  const bool overloaded = utilization >= Router::kShedUtilization;
  auto doc = util::Json::object();
  doc["status"] = draining      ? "draining"
                  : overloaded  ? "overloaded"
                                : "ok";
  doc["draining"] = draining;
  doc["overloaded"] = overloaded;
  doc["utilization"] = utilization;
  doc["replicas"] = router_.replicas();
  doc["port"] = port_;
  return doc.dump(-1);
}

std::string Server::statusz_json() const {
  auto doc = util::Json::object();
  auto server = util::Json::object();
  const ServerStats s = stats();
  server["connections"] = s.connections;
  server["requests"] = s.requests;
  server["protocol_errors"] = s.protocol_errors;
  server["bad_requests"] = s.bad_requests;
  server["setup_failures"] = s.setup_failures;
  server["port"] = port_;
  server["draining"] = closing_.load(std::memory_order_acquire);
  doc["server"] = std::move(server);
  doc["router"] = router_.counters().to_json();
  doc["utilization"] = router_.utilization();
  doc["registry"] = router_.registry().to_json();
  return doc.dump(-1);
}

void Server::accept_loop() {
  obs::TraceRecorder::instance().set_thread_name("acceptor");
  while (true) {
    const int fd = ::accept(listen_fd_, nullptr, nullptr);
    if (fd < 0) {
      if (errno == EINTR) continue;
      break;  // listener closed (stop()) or unrecoverable
    }
    if (closing_.load(std::memory_order_acquire)) {
      ::close(fd);
      break;
    }
    const int one = 1;
    // Responses are small; never trade their latency for coalescing.
    ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));

    connections_total_.fetch_add(1, std::memory_order_relaxed);
    NetMetrics::get().connections.inc();

    try {
      start_connection(fd);
    } catch (const std::exception&) {
      // std::system_error (no thread) or std::bad_alloc: refuse this
      // connection, not the server. Nothing here may allocate.
      ::close(fd);
      setup_failures_.fetch_add(1, std::memory_order_relaxed);
      NetMetrics::get().setup_failures.inc();
    }
    reap_finished();
  }
}

void Server::start_connection(int fd) {
  auto conn = std::make_unique<Connection>();
  conn->fd = fd;
  conn->pending = std::make_unique<util::MpmcQueue<Pending>>(kMaxPipelined);
  Connection& ref = *conn;
  {
    std::lock_guard lock(connections_mutex_);
    connections_.push_back(std::move(conn));
  }
  try {
    ref.reader = std::thread([this, &ref] { reader_loop(ref); });
    ref.writer = std::thread([this, &ref] { writer_loop(ref); });
  } catch (...) {
    if (ref.reader.joinable()) {
      ::shutdown(fd, SHUT_RDWR);  // the reader sees EOF and exits
      ref.reader.join();
    }
    // Only this thread adds or removes connections while it accepts, so
    // the half-built one is still the last.
    std::lock_guard lock(connections_mutex_);
    connections_.pop_back();
    throw;
  }
}

void Server::reader_loop(Connection& conn) {
  obs::TraceRecorder::instance().set_thread_name("conn-reader");
  // A full pending queue means kMaxPipelined responses are unwritten;
  // stall the reader (socket backpressure) rather than queue unboundedly.
  const auto push = [&conn](Pending&& pending) {
    while (conn.pending->push(std::move(pending)) ==
           util::PushResult::kFull) {
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
  };
  // Invalid contents in an intact frame are traffic, not a server bug:
  // answer kBadRequest in pipeline order and keep the connection.
  const auto answer_bad_request = [this, &push](std::uint64_t client_tag) {
    bad_requests_.fetch_add(1, std::memory_order_relaxed);
    NetMetrics::get().bad_requests.inc();
    std::promise<Response> failed;
    Response response;
    response.status = Status::kBadRequest;
    failed.set_value(std::move(response));
    Pending rejected;
    rejected.client_tag = client_tag;
    rejected.future = failed.get_future();
    push(std::move(rejected));
  };
  const auto count_protocol_error = [this] {
    protocol_errors_.fetch_add(1, std::memory_order_relaxed);
    NetMetrics::get().protocol_errors.inc();
  };
  std::vector<std::uint8_t> payload;
  while (wire::read_frame(conn.fd, payload)) {
    if (payload.empty()) {
      count_protocol_error();
      break;  // a zero-length frame carries no type byte: corruption
    }
    const std::uint8_t type = payload.front();
    if (type == wire::kVersionQueryFrame ||
        type == wire::kStatsQueryFrame) {
      // Probes are answered without touching the decode queue, but
      // routed through the pending queue so responses keep pipeline
      // order.
      Pending probe;
      bool decoded = false;
      if (type == wire::kVersionQueryFrame) {
        if (auto query = wire::decode_version_query(payload)) {
          probe.kind = Pending::Kind::kVersionQuery;
          probe.client_tag = query->client_tag;
          decoded = true;
        }
      } else {
        if (auto query = wire::decode_stats_query(payload)) {
          probe.kind = Pending::Kind::kStatsQuery;
          probe.client_tag = query->client_tag;
          decoded = true;
        }
      }
      if (!decoded) {
        // A known type byte with a malformed body is corruption.
        count_protocol_error();
        break;
      }
      push(std::move(probe));
      continue;
    }
    if (type != wire::kRequestFrame) {
      // Unknown-but-well-framed type: the peer speaks a newer protocol,
      // the stream itself is intact. Best effort on the tag: echo the u64
      // after the type byte when the payload has one (where this
      // protocol's frames keep their correlation tag); tag 0 still lets a
      // pipelining client count responses.
      std::uint64_t client_tag = 0;
      if (payload.size() >= 9) std::memcpy(&client_tag, payload.data() + 1, 8);
      answer_bad_request(client_tag);
      continue;
    }
    auto request = wire::decode_request(payload);
    if (!request.has_value()) {
      count_protocol_error();
      break;  // framing is broken; nothing on this stream is trustworthy
    }
    requests_.fetch_add(1, std::memory_order_relaxed);
    NetMetrics::get().requests.inc();

    Pending pending;
    pending.client_tag = request->client_tag;
    try {
      pending.future = router_.submit(
          std::move(request->insight), request->beam_width,
          std::chrono::milliseconds(request->deadline_ms),
          request->trace_id);
    } catch (const std::invalid_argument&) {
      answer_bad_request(request->client_tag);
      continue;
    }
    push(std::move(pending));
  }
  // EOF or broken framing: no more submissions. close() lets the writer
  // drain everything already admitted, then exit.
  conn.pending->close();
  conn.exited.fetch_add(1, std::memory_order_acq_rel);
}

void Server::writer_loop(Connection& conn) {
  obs::TraceRecorder::instance().set_thread_name("conn-writer");
  std::vector<std::uint8_t> encoded;
  bool write_ok = true;
  const auto send = [&](const auto& frame) {
    encoded.clear();
    wire::encode(frame, encoded);
    if (!wire::write_frame(conn.fd, encoded)) {
      write_ok = false;
      // Wake the reader out of read_frame so the connection tears down.
      ::shutdown(conn.fd, SHUT_RDWR);
    }
  };
  Pending pending;
  while (conn.pending->pop(pending)) {
    if (pending.kind == Pending::Kind::kVersionQuery) {
      if (!write_ok) continue;
      const ModelRegistry& registry = router_.registry();
      wire::VersionInfoFrame info;
      info.client_tag = pending.client_tag;
      info.model_version = registry.current_version();
      info.checksum = registry.current()->checksum();
      for (int i = 0; i < router_.replicas(); ++i) {
        info.swaps += router_.replica(i).swaps();
      }
      send(info);
      continue;
    }
    if (pending.kind == Pending::Kind::kStatsQuery) {
      if (!write_ok) continue;
      wire::StatsFrame stats_frame;
      stats_frame.client_tag = pending.client_tag;
      stats_frame.json = statusz_json();
      send(stats_frame);
      continue;
    }
    Response response = pending.future.get();
    if (!write_ok) continue;  // peer gone; keep draining futures
    wire::ResponseFrame frame;
    frame.status = response.status;
    frame.client_tag = pending.client_tag;
    frame.trace_id = response.trace_id;
    frame.model_version = response.model_version;
    frame.queue_ms = response.queue_ms;
    frame.total_ms = response.total_ms;
    frame.retry_after_ms = response.retry_after_ms;
    frame.candidates = std::move(response.candidates);
    send(frame);
  }
  ::shutdown(conn.fd, SHUT_RDWR);
  conn.exited.fetch_add(1, std::memory_order_acq_rel);
}

void Server::reap_finished() {
  std::lock_guard lock(connections_mutex_);
  std::erase_if(connections_, [](std::unique_ptr<Connection>& conn) {
    if (conn->exited.load(std::memory_order_acquire) != 2) return false;
    conn->reader.join();
    conn->writer.join();
    ::close(conn->fd);
    return true;
  });
}

void Server::stop() {
  // Serialized: a second stop() (destructor racing a signal handler's
  // stop, say) blocks here until the first finishes its drain, then
  // no-ops — it must never join the same threads concurrently.
  std::lock_guard stop_lock(stop_mutex_);
  if (closing_.exchange(true, std::memory_order_acq_rel)) {
    return;
  }
  // 1. Stop accepting: shutdown() wakes the blocking accept(), close()
  //    releases the port.
  ::shutdown(listen_fd_, SHUT_RDWR);
  ::close(listen_fd_);
  if (acceptor_.joinable()) acceptor_.join();

  // 2. EOF every connection's read side. Readers stop admitting; writers
  //    drain all responses already in flight before exiting.
  {
    std::lock_guard lock(connections_mutex_);
    for (const auto& conn : connections_) {
      ::shutdown(conn->fd, SHUT_RD);
    }
  }
  // 3. Join and close everything.
  {
    std::lock_guard lock(connections_mutex_);
    for (auto& conn : connections_) {
      if (conn->reader.joinable()) conn->reader.join();
      if (conn->writer.joinable()) conn->writer.join();
      ::close(conn->fd);
    }
    connections_.clear();
  }
  // 4. Drain the replicas.
  router_.stop();
  // 5. Stop the admin plane last: throughout the drain /healthz kept
  //    answering 503 "draining", so an external health checker sees the
  //    shutdown instead of an instant connection refusal. The handlers
  //    only read state that outlives this method (counters, registry),
  //    so late scrapes are safe.
  if (admin_ != nullptr) admin_->stop();
}

}  // namespace vpr::serve
