// serve::Server — the TCP front door, exercised end-to-end over loopback
// with an ephemeral port. Responses must stay bitwise identical to
// beam_search after a round trip through the wire, pipelined requests
// must all come back (matched by client_tag), malformed-but-well-framed
// requests and unknown frame types must answer kBadRequest without
// dropping the connection, corrupt framing must drop it, admin probes
// (version/stats) interleaved mid-stream must preserve pipeline order,
// client-originated trace ids must survive into the server's exported
// trace (the cross-process merge acceptance), stop() must drain
// every response already admitted — the SIGTERM guarantee the CI smoke
// relies on — and a connection whose threads cannot be created must be
// closed without taking the server down.

#include <gtest/gtest.h>

#include <arpa/inet.h>
#include <netinet/in.h>
#include <pthread.h>
#include <sys/mman.h>
#include <sys/resource.h>
#include <sys/socket.h>
#include <sys/time.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <set>
#include <sstream>
#include <thread>
#include <vector>

#include "align/beam.h"
#include "obs/trace.h"
#include "obs/trace_merge.h"
#include "serve/client.h"
#include "serve/server.h"
#include "serve/wire.h"
#include "util/json.h"
#include "util/rng.h"

namespace vpr::serve {
namespace {

using namespace std::chrono_literals;

align::RecipeModel test_model() {
  util::Rng rng{7};
  return align::RecipeModel{align::ModelConfig{}, rng};
}

int connect_loopback(int port) {
  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  EXPECT_GE(fd, 0);
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(static_cast<std::uint16_t>(port));
  EXPECT_EQ(::inet_pton(AF_INET, "127.0.0.1", &addr.sin_addr), 1);
  EXPECT_EQ(
      ::connect(fd, reinterpret_cast<const sockaddr*>(&addr), sizeof(addr)),
      0);
  return fd;
}

bool send_request(int fd, const std::vector<double>& insight, int width,
                  std::uint64_t tag,
                  Priority priority = Priority::kInteractive,
                  std::uint64_t trace_id = 0) {
  wire::RequestFrame request;
  request.priority = priority;
  request.beam_width = width;
  request.client_tag = tag;
  request.trace_id = trace_id;
  request.insight = insight;
  std::vector<std::uint8_t> encoded;
  wire::encode(request, encoded);
  return wire::write_frame(fd, encoded);
}

bool send_version_query(int fd, std::uint64_t tag) {
  wire::VersionQueryFrame query;
  query.client_tag = tag;
  std::vector<std::uint8_t> encoded;
  wire::encode(query, encoded);
  return wire::write_frame(fd, encoded);
}

bool send_stats_query(int fd, std::uint64_t tag) {
  wire::StatsQueryFrame query;
  query.client_tag = tag;
  std::vector<std::uint8_t> encoded;
  wire::encode(query, encoded);
  return wire::write_frame(fd, encoded);
}

std::optional<wire::ResponseFrame> recv_response(int fd) {
  std::vector<std::uint8_t> payload;
  if (!wire::read_frame(fd, payload)) return std::nullopt;
  return wire::decode_response(payload);
}

TEST(Server, PipelinedRoundTripMatchesBeamSearchBitwise) {
  const auto model = test_model();
  const auto insights = bench_suite_insights(model.config().insight_dim);
  constexpr int kWidth = 4;

  ServerConfig config;
  config.router.replicas = 2;
  Server server{model, config};
  ASSERT_GT(server.port(), 0);

  const int fd = connect_loopback(server.port());
  // Pipeline all 17 without reading a single response first. The wire's
  // priority byte cycles through every valid value (0..2): the server
  // accepts each and serves them all alike.
  for (std::size_t i = 0; i < insights.size(); ++i) {
    ASSERT_TRUE(send_request(fd, insights[i], kWidth,
                             static_cast<std::uint64_t>(i),
                             static_cast<Priority>(i % 3)));
  }
  std::set<std::uint64_t> tags_seen;
  for (std::size_t i = 0; i < insights.size(); ++i) {
    const auto response = recv_response(fd);
    ASSERT_TRUE(response.has_value());
    ASSERT_EQ(response->status, Status::kOk);
    ASSERT_TRUE(tags_seen.insert(response->client_tag).second)
        << "duplicate tag " << response->client_tag;
    const auto& insight =
        insights[static_cast<std::size_t>(response->client_tag)];
    const auto expected = align::beam_search(model, insight, kWidth);
    ASSERT_EQ(response->candidates.size(), expected.size());
    for (std::size_t r = 0; r < expected.size(); ++r) {
      EXPECT_EQ(response->candidates[r].recipes.to_u64(),
                expected[r].recipes.to_u64());
      EXPECT_EQ(response->candidates[r].log_prob, expected[r].log_prob);
    }
    EXPECT_GE(response->total_ms, response->queue_ms);
    EXPECT_NE(response->trace_id, 0U);
  }
  EXPECT_EQ(tags_seen.size(), insights.size());
  ::close(fd);

  // All 17 responses arrived, so all 17 frames were decoded and counted.
  const auto stats = server.stats();
  EXPECT_EQ(stats.connections, 1U);
  EXPECT_EQ(stats.requests, insights.size());
  EXPECT_EQ(stats.protocol_errors, 0U);
  server.stop();
}

TEST(Server, BadContentsAnswerKBadRequestAndKeepConnection) {
  const auto model = test_model();
  const auto insights = bench_suite_insights(model.config().insight_dim);

  ServerConfig config;
  config.router.replicas = 1;
  Server server{model, config};
  const int fd = connect_loopback(server.port());

  // Well-framed but wrong insight dimension: traffic, not a protocol
  // violation — answered kBadRequest, connection stays up.
  ASSERT_TRUE(send_request(fd, std::vector<double>(3, 0.5), 2, 11));
  const auto bad = recv_response(fd);
  ASSERT_TRUE(bad.has_value());
  EXPECT_EQ(bad->status, Status::kBadRequest);
  EXPECT_EQ(bad->client_tag, 11U);

  // Beam width out of range takes the same path.
  ASSERT_TRUE(send_request(fd, insights[0], 10'000, 12));
  const auto wide = recv_response(fd);
  ASSERT_TRUE(wide.has_value());
  EXPECT_EQ(wide->status, Status::kBadRequest);

  // The connection still serves valid work afterwards.
  ASSERT_TRUE(send_request(fd, insights[0], 2, 13));
  const auto ok = recv_response(fd);
  ASSERT_TRUE(ok.has_value());
  EXPECT_EQ(ok->status, Status::kOk);
  EXPECT_EQ(ok->client_tag, 13U);

  EXPECT_EQ(server.stats().bad_requests, 2U);
  ::close(fd);
  server.stop();
}

TEST(Server, CorruptFramingDropsTheConnection) {
  const auto model = test_model();
  ServerConfig config;
  config.router.replicas = 1;
  Server server{model, config};
  const int fd = connect_loopback(server.port());

  // A length prefix beyond kMaxFrameBytes: the server must refuse to
  // allocate and drop the connection (read side sees EOF/reset).
  const std::uint8_t huge[4] = {0xFF, 0xFF, 0xFF, 0x7F};
  ASSERT_TRUE(wire::write_all(fd, huge, sizeof(huge)));
  EXPECT_FALSE(recv_response(fd).has_value());
  ::close(fd);

  // A *known* type byte with a malformed body is corruption too: a
  // version query is exactly 9 payload bytes, so 5 means the stream is
  // not what it claims to be. Counted as a protocol error, connection
  // dropped.
  const int fd2 = connect_loopback(server.port());
  const std::uint8_t bogus[9] = {5, 0, 0, 0, wire::kVersionQueryFrame,
                                 1,  2, 3, 4};
  ASSERT_TRUE(wire::write_all(fd2, bogus, sizeof(bogus)));
  EXPECT_FALSE(recv_response(fd2).has_value());
  ::close(fd2);

  // Give the reader threads a beat to record the error.
  for (int i = 0; i < 100 && server.stats().protocol_errors < 1; ++i) {
    std::this_thread::sleep_for(5ms);
  }
  EXPECT_GE(server.stats().protocol_errors, 1U);
  server.stop();
}

TEST(Server, StopDrainsEveryAdmittedResponse) {
  // The SIGTERM guarantee: requests the server has admitted before stop()
  // all produce responses; the client reads every one of them even though
  // the listener and the read sides are already gone.
  const auto model = test_model();
  const auto insights = bench_suite_insights(model.config().insight_dim);
  constexpr int kRequests = 12;

  ServerConfig config;
  config.router.replicas = 2;
  Server server{model, config};
  const int fd = connect_loopback(server.port());
  for (int i = 0; i < kRequests; ++i) {
    ASSERT_TRUE(send_request(
        fd, insights[static_cast<std::size_t>(i % kBenchSuiteDesigns)], 3,
        static_cast<std::uint64_t>(i)));
  }
  // Wait until every frame has been decoded and submitted, so the drain
  // has a deterministic amount of admitted work to flush.
  for (int i = 0; i < 2000 && server.stats().requests < kRequests; ++i) {
    std::this_thread::sleep_for(1ms);
  }
  ASSERT_EQ(server.stats().requests, static_cast<std::uint64_t>(kRequests));

  std::thread stopper{[&] { server.stop(); }};
  int received = 0;
  while (const auto response = recv_response(fd)) {
    EXPECT_EQ(response->status, Status::kOk);
    ++received;
  }
  stopper.join();
  EXPECT_EQ(received, kRequests);
  ::close(fd);

  // After the drain the router is stopped too.
  auto late = server.router().submit(insights[0], 2);
  EXPECT_EQ(late.get().status, Status::kShutdown);
}

TEST(Server, UnknownFrameTypeAnswersBadRequestAndKeepsConnection) {
  // A well-framed frame with a type byte this server has never heard of
  // is a peer speaking a newer protocol, not stream corruption: the
  // answer is an in-band kBadRequest (tag echoed best-effort from the
  // u64 after the type byte) and the connection keeps serving.
  const auto model = test_model();
  const auto insights = bench_suite_insights(model.config().insight_dim);
  ServerConfig config;
  config.router.replicas = 1;
  Server server{model, config};
  const int fd = connect_loopback(server.port());

  const std::uint64_t tag = 0x1122334455667788ULL;
  std::vector<std::uint8_t> frame = {9, 0, 0, 0, 0xEE};
  frame.resize(4 + 9);
  std::memcpy(frame.data() + 5, &tag, sizeof(tag));
  ASSERT_TRUE(wire::write_all(fd, frame.data(), frame.size()));

  const auto rejected = recv_response(fd);
  ASSERT_TRUE(rejected.has_value());
  EXPECT_EQ(rejected->status, Status::kBadRequest);
  EXPECT_EQ(rejected->client_tag, tag);

  // An unknown frame too short to carry a tag still gets a response
  // (tag 0), so a pipelining client can keep counting.
  const std::uint8_t tiny[5] = {1, 0, 0, 0, 0x7F};
  ASSERT_TRUE(wire::write_all(fd, tiny, sizeof(tiny)));
  const auto anonymous = recv_response(fd);
  ASSERT_TRUE(anonymous.has_value());
  EXPECT_EQ(anonymous->status, Status::kBadRequest);
  EXPECT_EQ(anonymous->client_tag, 0U);

  // The stream is intact: real work still round-trips afterwards.
  ASSERT_TRUE(send_request(fd, insights[0], 2, 99));
  const auto ok = recv_response(fd);
  ASSERT_TRUE(ok.has_value());
  EXPECT_EQ(ok->status, Status::kOk);
  EXPECT_EQ(ok->client_tag, 99U);

  EXPECT_EQ(server.stats().bad_requests, 2U);
  EXPECT_EQ(server.stats().protocol_errors, 0U);
  ::close(fd);
  server.stop();
}

TEST(Server, InterleavedAdminProbesKeepPipelineOrder) {
  // Version and stats probes pipelined between requests, nothing read
  // until everything is sent: responses must come back in submission
  // order with the right frame types — probes are answered off the
  // decode queue but must never jump the per-connection pipeline.
  const auto model = test_model();
  const auto insights = bench_suite_insights(model.config().insight_dim);
  ServerConfig config;
  config.router.replicas = 2;
  Server server{model, config};
  const int fd = connect_loopback(server.port());

  ASSERT_TRUE(send_request(fd, insights[0], 3, 1));
  ASSERT_TRUE(send_version_query(fd, 2));
  ASSERT_TRUE(send_stats_query(fd, 3));
  ASSERT_TRUE(send_request(fd, insights[1], 3, 4));
  ASSERT_TRUE(send_stats_query(fd, 5));
  ASSERT_TRUE(send_request(fd, insights[2], 3, 6));

  const std::vector<std::uint8_t> expected_types = {
      wire::kResponseFrame, wire::kVersionInfoFrame, wire::kStatsFrame,
      wire::kResponseFrame, wire::kStatsFrame,       wire::kResponseFrame};
  for (std::size_t i = 0; i < expected_types.size(); ++i) {
    std::vector<std::uint8_t> payload;
    ASSERT_TRUE(wire::read_frame(fd, payload)) << "frame " << i;
    ASSERT_FALSE(payload.empty());
    EXPECT_EQ(payload.front(), expected_types[i]) << "frame " << i;
    if (payload.front() == wire::kStatsFrame) {
      const auto stats = wire::decode_stats(payload);
      ASSERT_TRUE(stats.has_value());
      EXPECT_EQ(stats->client_tag, i == 2 ? 3U : 5U);
      // The payload is the live /statusz document: valid JSON with the
      // server and router sections.
      const auto doc = util::Json::parse(stats->json);
      ASSERT_TRUE(doc.has_value()) << stats->json;
      ASSERT_TRUE(doc->is_object());
      EXPECT_EQ(doc->as_object().count("server"), 1U);
      EXPECT_EQ(doc->as_object().count("router"), 1U);
    } else if (payload.front() == wire::kVersionInfoFrame) {
      const auto info = wire::decode_version_info(payload);
      ASSERT_TRUE(info.has_value());
      EXPECT_EQ(info->client_tag, 2U);
    } else {
      const auto response = wire::decode_response(payload);
      ASSERT_TRUE(response.has_value());
      EXPECT_EQ(response->status, Status::kOk);
    }
  }
  ::close(fd);
  server.stop();
}

TEST(Server, DribbledBytesReassembleAcrossPartialReads) {
  // One request plus one stats probe, delivered in tiny bursts with
  // pauses between them: the server's blocking frame reader must
  // reassemble both and answer in order.
  const auto model = test_model();
  const auto insights = bench_suite_insights(model.config().insight_dim);
  ServerConfig config;
  config.router.replicas = 1;
  Server server{model, config};
  const int fd = connect_loopback(server.port());

  std::vector<std::uint8_t> stream;
  wire::RequestFrame request;
  request.beam_width = 3;
  request.client_tag = 21;
  request.insight = insights[0];
  wire::encode(request, stream);
  wire::StatsQueryFrame probe;
  probe.client_tag = 22;
  wire::encode(probe, stream);

  for (std::size_t offset = 0; offset < stream.size(); offset += 7) {
    const std::size_t n = std::min<std::size_t>(7, stream.size() - offset);
    ASSERT_TRUE(wire::write_all(fd, stream.data() + offset, n));
    std::this_thread::sleep_for(std::chrono::microseconds(200));
  }

  const auto response = recv_response(fd);
  ASSERT_TRUE(response.has_value());
  EXPECT_EQ(response->status, Status::kOk);
  EXPECT_EQ(response->client_tag, 21U);
  std::vector<std::uint8_t> payload;
  ASSERT_TRUE(wire::read_frame(fd, payload));
  const auto stats = wire::decode_stats(payload);
  ASSERT_TRUE(stats.has_value());
  EXPECT_EQ(stats->client_tag, 22U);
  ::close(fd);
  server.stop();
}

TEST(Server, ClientTraceIdSpansProcessesAfterMerge) {
  // The tentpole acceptance: a client-minted trace id rides the request
  // frame, the server continues it through admit/batch/finish, and
  // trace_merge fuses the two processes' exports into one causally
  // linked async track. The "client process" here is a fixture document
  // carrying the same id with its own wall-clock anchor — exactly what
  // serve-bench --trace-out writes from a real remote client.
  auto& recorder = obs::TraceRecorder::instance();
  recorder.set_enabled(false);
  recorder.clear();

  const auto model = test_model();
  const auto insights = bench_suite_insights(model.config().insight_dim);
  ServerConfig config;
  config.router.replicas = 1;
  Server server{model, config};
  const int fd = connect_loopback(server.port());

  recorder.set_enabled(true);
  const std::uint64_t trace_id = obs::TraceRecorder::next_id();
  ASSERT_NE(trace_id, 0U);
  ASSERT_TRUE(send_request(fd, insights[0], 3, 77, Priority::kInteractive,
                           trace_id));
  const auto response = recv_response(fd);
  ASSERT_TRUE(response.has_value());
  ASSERT_EQ(response->status, Status::kOk);
  // The server echoes the id it actually traced under.
  EXPECT_EQ(response->trace_id, trace_id);
  ::close(fd);
  server.stop();  // joins every recording thread: export is quiescent
  recorder.set_enabled(false);

  std::ostringstream server_trace;
  recorder.write_json(server_trace);
  recorder.clear();

  char id_hex[2 + 16 + 1];
  std::snprintf(id_hex, sizeof id_hex, "0x%llx",
                static_cast<unsigned long long>(trace_id));

  // The server-side export already carries the client's id.
  ASSERT_NE(server_trace.str().find(id_hex), std::string::npos);

  const std::string client_trace =
      std::string(R"({"traceEvents":[)") +
      R"({"name":"client.request","cat":"serve","ph":"b","pid":1,"tid":1,)" +
      R"("ts":100,"id":")" + id_hex + R"("},)" +
      R"({"name":"client.request","cat":"serve","ph":"e","pid":1,"tid":1,)" +
      R"("ts":90000000,"id":")" + id_hex + R"("}],)" +
      R"("otherData":{"epoch_unix_us":1,"process_name":"client"}})";

  std::string error;
  const auto merged = obs::trace_merge({client_trace, server_trace.str()},
                                       &error);
  ASSERT_TRUE(merged.has_value()) << error;

  // The shared id appears under both pids — one request, one track,
  // two processes.
  std::set<double> pids_with_id;
  std::size_t server_events = 0;
  for (const util::Json& e :
       merged->as_object().at("traceEvents").as_array()) {
    const auto& fields = e.as_object();
    const auto it = fields.find("id");
    if (it == fields.end() || !it->second.is_string() ||
        it->second.as_string() != id_hex) {
      continue;
    }
    const double pid = fields.at("pid").as_number();
    pids_with_id.insert(pid);
    if (pid == 2.0) ++server_events;
  }
  EXPECT_EQ(pids_with_id, (std::set<double>{1.0, 2.0}));
  // admit/batch/finish at minimum: the server really continued the span
  // rather than just echoing the id.
  EXPECT_GE(server_events, 3U);
}

/// Address space left under the lowered RLIMIT_AS: room for accept's
/// small allocations, too little for a thread stack.
constexpr std::size_t kAddressHeadroom = std::size_t{1} << 20;

/// This process's VmSize in bytes, 0 when /proc is unreadable.
std::size_t vm_size_bytes() {
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind("VmSize:", 0) == 0) {
      return static_cast<std::size_t>(std::stoull(line.substr(7))) * 1024;
    }
  }
  return 0;
}

std::size_t default_thread_stack_bytes() {
  pthread_attr_t attr;
  pthread_attr_init(&attr);
  std::size_t bytes = 0;
  pthread_attr_getstacksize(&attr, &bytes);
  pthread_attr_destroy(&attr);
  return bytes;
}

/// Whether a soft RLIMIT_AS of VmSize + kAddressHeadroom makes a
/// thread-stack mapping fail on this host. Probed in a forked child (a
/// process, not a thread) so this process keeps its limit; the child only
/// makes system calls.
bool address_limit_blocks_thread_stacks() {
  const std::size_t vm = vm_size_bytes();
  const std::size_t stack = default_thread_stack_bytes();
  if (vm == 0 || stack <= kAddressHeadroom) return false;
  const pid_t pid = ::fork();
  if (pid < 0) return false;
  if (pid == 0) {
    rlimit limit{};
    if (::getrlimit(RLIMIT_AS, &limit) != 0) ::_exit(2);
    limit.rlim_cur = vm + kAddressHeadroom;
    if (::setrlimit(RLIMIT_AS, &limit) != 0) ::_exit(2);
    void* mapped = ::mmap(nullptr, stack, PROT_READ | PROT_WRITE,
                          MAP_PRIVATE | MAP_ANONYMOUS | MAP_STACK, -1, 0);
    ::_exit(mapped == MAP_FAILED ? 0 : 1);
  }
  int status = 0;
  if (::waitpid(pid, &status, 0) != pid) return false;
  return WIFEXITED(status) && WEXITSTATUS(status) == 0;
}

/// The death-test child: a connection that arrives while no thread stack
/// fits in the address space is closed, and the server keeps serving
/// both an older connection and a newer one. Returns the exit code
/// (0 = pass).
int serve_through_thread_creation_failure() {
  const auto model = test_model();
  const auto insights = bench_suite_insights(model.config().insight_dim);
  ServerConfig config;
  config.router.replicas = 1;
  Server server{model, config};
  const auto served = [&](int fd, std::uint64_t tag) {
    if (!send_request(fd, insights[0], 2, tag)) return false;
    const auto response = recv_response(fd);
    return response.has_value() && response->status == Status::kOk;
  };

  // One request first, on a connection that stays open: every server
  // thread has made its start-up allocations before the limit drops (and
  // no exited thread has left a cached stack that a new thread could
  // reuse without mapping one), so the limit can only break the next
  // connection's set-up.
  const int warm = connect_loopback(server.port());
  if (!served(warm, 1)) return 5;

  rlimit saved{};
  if (::getrlimit(RLIMIT_AS, &saved) != 0) return 2;
  rlimit lowered = saved;
  lowered.rlim_cur = vm_size_bytes() + kAddressHeadroom;
  if (::setrlimit(RLIMIT_AS, &lowered) != 0) return 2;
  const int refused = connect_loopback(server.port());
  timeval timeout{};
  timeout.tv_sec = 10;
  ::setsockopt(refused, SOL_SOCKET, SO_RCVTIMEO, &timeout, sizeof(timeout));
  char byte = 0;
  const ssize_t got = ::recv(refused, &byte, 1, 0);  // 0 = orderly close
  ::close(refused);
  if (::setrlimit(RLIMIT_AS, &saved) != 0) return 2;
  if (got != 0) return 3;
  for (int i = 0; i < 2000 && server.stats().setup_failures < 1; ++i) {
    std::this_thread::sleep_for(1ms);
  }
  if (server.stats().setup_failures != 1) return 4;

  const int fresh = connect_loopback(server.port());
  const bool ok = served(fresh, 2) && served(warm, 3);
  ::close(fresh);
  ::close(warm);
  server.stop();
  return ok ? 0 : 6;
}

TEST(ServerDeathTest, ThreadCreationFailureClosesOnlyThatConnection) {
#if defined(INSIGHTALIGN_SANITIZED) || defined(__SANITIZE_ADDRESS__) || \
    defined(__SANITIZE_THREAD__)
  GTEST_SKIP() << "sanitizer runtimes reserve and map address space of "
                  "their own, so RLIMIT_AS cannot single out thread stacks";
#endif
  if (!address_limit_blocks_thread_stacks()) {
    GTEST_SKIP() << "a soft RLIMIT_AS does not make a thread-stack mapping "
                    "fail on this host";
  }
  // Re-executed child: no thread has exited there yet, so glibc has no
  // cached stack to hand out without mapping a new one.
  ::testing::GTEST_FLAG(death_test_style) = "threadsafe";
  EXPECT_EXIT(std::exit(serve_through_thread_creation_failure()),
              ::testing::ExitedWithCode(0), "");
}

}  // namespace
}  // namespace vpr::serve
