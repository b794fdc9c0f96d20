#pragma once
// Length-prefixed binary wire protocol for the serving front door, shared
// by `insightalign serve --listen` and the `serve-bench --connect` client
// so the two sides cannot drift.
//
// Framing: every message is
//
//   u32  payload length in bytes, little-endian (prefix excluded)
//   u8   frame type (kRequestFrame / kResponseFrame)
//   ...  type-specific payload, little-endian, raw IEEE-754 bits for
//        doubles (the bitwise-equivalence guarantee survives the wire:
//        log probabilities arrive exactly as the server computed them)
//
// Request payload:  u8 priority (validated, ignored: the server has one
//                   service class), u16 beam_width, u32 deadline_ms
//                   (0 = none), u64 client_tag, u64 trace_id (0 = let the
//                   server originate one; nonzero ids are minted by
//                   obs::TraceRecorder::next_id() on the client and
//                   continued through admit/batch/finish on the server,
//                   so obs::trace_merge can fuse both processes' traces),
//                   u32 insight_dim, f64[insight_dim] insight
// Response payload: u8 status, u64 client_tag (echoed), u64 trace_id,
//                   u64 model_version (registry version that decoded the
//                   request; 0 on fixed-model servers), f64 queue_ms,
//                   f64 total_ms, f64 retry_after_ms, u32 candidate
//                   count, then per candidate u64 recipe-set bits +
//                   f64 log_prob
// Version query:    u64 client_tag — answered out of band by the server
//                   (no decode work), so clients can watch hot swaps.
// Version info:     u64 client_tag (echoed), u64 model_version,
//                   u64 checksum (registry checksum of that version, 0
//                   on fixed-model servers), u64 swaps (hot swaps the
//                   answering replica has adopted)
// Stats query:      u64 client_tag — the in-band admin plane: answered
//                   off the decode queue like version queries.
// Stats:            u64 client_tag (echoed), u32 byte length, then that
//                   many bytes of UTF-8 JSON (the server's /statusz
//                   document: occupancy, registry versions, A/B table).
//
// The client_tag is caller-chosen and echoed verbatim, so a connection can
// pipeline many requests and match responses without ordering assumptions.
// Frames above kMaxFrameBytes are treated as protocol corruption and kill
// the connection — a length prefix must never make the peer allocate
// unboundedly. An *unknown but well-framed* type byte is NOT corruption:
// the framing layer delivers it like any other payload and the server
// answers in-band with Status::kBadRequest, so an old client survives a
// peer that speaks newer admin frames.

#include <cstddef>
#include <cstdint>
#include <optional>
#include <span>
#include <string>
#include <vector>

#include "serve/service.h"

namespace vpr::serve {

/// The request frame's priority byte. Decoding rejects values above
/// kBatch; the server accepts every valid value and serves all requests
/// alike, so old clients that set it still parse and are served.
enum class Priority {
  kInteractive = 0,
  kNormal = 1,
  kBatch = 2,
};

}  // namespace vpr::serve

namespace vpr::serve::wire {

inline constexpr std::uint8_t kRequestFrame = 1;
inline constexpr std::uint8_t kResponseFrame = 2;
inline constexpr std::uint8_t kVersionQueryFrame = 3;
inline constexpr std::uint8_t kVersionInfoFrame = 4;
inline constexpr std::uint8_t kStatsQueryFrame = 5;
inline constexpr std::uint8_t kStatsFrame = 6;
/// Upper bound on a single frame's payload (type byte included).
inline constexpr std::size_t kMaxFrameBytes = 1 << 20;

struct RequestFrame {
  Priority priority = Priority::kNormal;
  int beam_width = 1;
  /// Milliseconds until the deadline; 0 means no deadline.
  std::uint32_t deadline_ms = 0;
  /// Caller correlation id, echoed in the response.
  std::uint64_t client_tag = 0;
  /// Cross-process trace id; 0 lets the server originate one. The id (from
  /// the client's obs::TraceRecorder::next_id()) is carried through the
  /// server's admit/batch/finish async events and echoed in the response,
  /// so merged traces show one causally-linked request track.
  std::uint64_t trace_id = 0;
  std::vector<double> insight;
};

struct ResponseFrame {
  Status status = Status::kShutdown;
  std::uint64_t client_tag = 0;
  std::uint64_t trace_id = 0;
  /// Registry version that served the request; 0 on fixed-model servers.
  std::uint64_t model_version = 0;
  double queue_ms = 0.0;
  double total_ms = 0.0;
  double retry_after_ms = 0.0;
  std::vector<align::BeamCandidate> candidates;
};

/// Client-initiated probe: "which model version are you serving?"
/// Answered immediately (no decode queue round-trip).
struct VersionQueryFrame {
  std::uint64_t client_tag = 0;
};

struct VersionInfoFrame {
  std::uint64_t client_tag = 0;
  std::uint64_t model_version = 0;
  /// Registry checksum of that version (0 on fixed-model servers), so a
  /// client can assert two replicas really hold identical weights.
  std::uint64_t checksum = 0;
  /// Hot swaps the answering replica has adopted so far.
  std::uint64_t swaps = 0;
};

/// In-band admin probe: "dump your live stats". Same out-of-band answer
/// path as version queries — no decode-queue round trip, so a scrape
/// cannot be stuck behind a full admission queue.
struct StatsQueryFrame {
  std::uint64_t client_tag = 0;
};

/// The server's status document as a JSON string (same content as the
/// HTTP /statusz endpoint). Arbitrary-length up to kMaxFrameBytes.
struct StatsFrame {
  std::uint64_t client_tag = 0;
  std::string json;
};

/// Append one framed message (length prefix included) to `out`.
void encode(const RequestFrame& frame, std::vector<std::uint8_t>& out);
void encode(const ResponseFrame& frame, std::vector<std::uint8_t>& out);
void encode(const VersionQueryFrame& frame, std::vector<std::uint8_t>& out);
void encode(const VersionInfoFrame& frame, std::vector<std::uint8_t>& out);
void encode(const StatsQueryFrame& frame, std::vector<std::uint8_t>& out);
void encode(const StatsFrame& frame, std::vector<std::uint8_t>& out);

/// Decode a payload (the bytes after the length prefix, type byte first).
/// nullopt on wrong type byte, truncation, trailing garbage, or an
/// out-of-range enum value — the caller should drop the connection.
[[nodiscard]] std::optional<RequestFrame> decode_request(
    std::span<const std::uint8_t> payload);
[[nodiscard]] std::optional<ResponseFrame> decode_response(
    std::span<const std::uint8_t> payload);
[[nodiscard]] std::optional<VersionQueryFrame> decode_version_query(
    std::span<const std::uint8_t> payload);
[[nodiscard]] std::optional<VersionInfoFrame> decode_version_info(
    std::span<const std::uint8_t> payload);
[[nodiscard]] std::optional<StatsQueryFrame> decode_stats_query(
    std::span<const std::uint8_t> payload);
[[nodiscard]] std::optional<StatsFrame> decode_stats(
    std::span<const std::uint8_t> payload);

/// Incremental frame reassembler for stream transports: feed() arbitrary
/// chunks as they arrive, next() yields complete payloads in order.
class FrameReader {
 public:
  explicit FrameReader(std::size_t max_frame = kMaxFrameBytes)
      : max_frame_(max_frame) {}

  void feed(std::span<const std::uint8_t> bytes);
  /// Move the next complete payload into `payload`; false when more bytes
  /// are needed (or the stream is corrupt).
  [[nodiscard]] bool next(std::vector<std::uint8_t>& payload);
  /// A length prefix exceeded max_frame: the stream is unrecoverable.
  [[nodiscard]] bool corrupt() const noexcept { return corrupt_; }

 private:
  std::size_t max_frame_;
  std::vector<std::uint8_t> buffer_;
  std::size_t consumed_ = 0;
  bool corrupt_ = false;
};

/// Blocking POSIX helpers shared by server and client (retry on EINTR and
/// short transfers). write_frame sends an already-encoded frame — encode()
/// output, length prefix included; read_frame strips the prefix and fills
/// `payload`. Both return false on EOF, error, or an oversized frame.
[[nodiscard]] bool write_all(int fd, const std::uint8_t* data, std::size_t n);
[[nodiscard]] bool write_frame(int fd, std::span<const std::uint8_t> encoded);
[[nodiscard]] bool read_frame(int fd, std::vector<std::uint8_t>& payload,
                              std::size_t max_frame = kMaxFrameBytes);

}  // namespace vpr::serve::wire
