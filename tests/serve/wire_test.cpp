// serve::wire — the length-prefixed protocol both `insightalign serve`
// and `serve-bench --connect` speak. Roundtrips must preserve doubles
// bitwise (the serving layer's equivalence guarantee has to survive the
// wire), malformed payloads must decode to nullopt rather than throw or
// over-read, and the incremental FrameReader must reassemble frames from
// arbitrary chunkings and flag oversized prefixes as corruption.

#include <gtest/gtest.h>

#include <algorithm>
#include <cstring>
#include <span>
#include <vector>

#include "serve/wire.h"

namespace vpr::serve::wire {
namespace {

/// The bytes after the 4-byte length prefix — what decode_* consumes.
std::span<const std::uint8_t> payload_of(
    const std::vector<std::uint8_t>& encoded) {
  return std::span<const std::uint8_t>(encoded).subspan(4);
}

RequestFrame sample_request() {
  RequestFrame request;
  request.priority = Priority::kBatch;
  request.beam_width = 5;
  request.deadline_ms = 250;
  request.client_tag = 0xDEADBEEFCAFEF00DULL;
  // Values with busy mantissas; equality below is exact, not approximate.
  request.insight = {0.1, -2.5e-3, 1.0 / 3.0, -0.0, 7e300};
  return request;
}

TEST(Wire, RequestRoundtripPreservesEveryFieldBitwise) {
  const RequestFrame request = sample_request();
  std::vector<std::uint8_t> encoded;
  encode(request, encoded);

  const auto decoded = decode_request(payload_of(encoded));
  ASSERT_TRUE(decoded.has_value());
  EXPECT_EQ(decoded->priority, request.priority);
  EXPECT_EQ(decoded->beam_width, request.beam_width);
  EXPECT_EQ(decoded->deadline_ms, request.deadline_ms);
  EXPECT_EQ(decoded->client_tag, request.client_tag);
  ASSERT_EQ(decoded->insight.size(), request.insight.size());
  for (std::size_t i = 0; i < request.insight.size(); ++i) {
    std::uint64_t sent = 0;
    std::uint64_t got = 0;
    std::memcpy(&sent, &request.insight[i], sizeof(sent));
    std::memcpy(&got, &decoded->insight[i], sizeof(got));
    EXPECT_EQ(got, sent) << "insight[" << i << "]";
  }
}

TEST(Wire, ResponseRoundtripPreservesCandidates) {
  ResponseFrame response;
  response.status = Status::kOk;
  response.client_tag = 42;
  response.trace_id = 7777;
  response.queue_ms = 0.125;
  response.total_ms = 3.875;
  response.retry_after_ms = 0.0;
  align::BeamCandidate first;
  first.recipes = flow::RecipeSet::from_u64(0x123456789ULL);
  first.log_prob = -1.0 / 7.0;
  align::BeamCandidate second;
  second.recipes = flow::RecipeSet::from_u64(0x1ULL);
  second.log_prob = -2.25;
  response.candidates = {first, second};

  std::vector<std::uint8_t> encoded;
  encode(response, encoded);
  const auto decoded = decode_response(payload_of(encoded));
  ASSERT_TRUE(decoded.has_value());
  EXPECT_EQ(decoded->status, Status::kOk);
  EXPECT_EQ(decoded->client_tag, 42U);
  EXPECT_EQ(decoded->trace_id, 7777U);
  EXPECT_EQ(decoded->queue_ms, 0.125);
  EXPECT_EQ(decoded->total_ms, 3.875);
  ASSERT_EQ(decoded->candidates.size(), 2U);
  EXPECT_EQ(decoded->candidates[0].recipes.to_u64(), 0x123456789ULL);
  EXPECT_EQ(decoded->candidates[0].log_prob, -1.0 / 7.0);
  EXPECT_EQ(decoded->candidates[1].recipes.to_u64(), 0x1ULL);
  EXPECT_EQ(decoded->candidates[1].log_prob, -2.25);
}

TEST(Wire, ResponseCarriesTheServingModelVersion) {
  // The hot-swap A/B contract on the wire: a response reports the registry
  // version that decoded it, and the field survives the round trip next to
  // the candidates.
  ResponseFrame response;
  response.status = Status::kOk;
  response.client_tag = 7;
  response.model_version = 0x0102030405060708ULL;
  align::BeamCandidate top;
  top.recipes = flow::RecipeSet::from_u64(0x2AULL);
  top.log_prob = -0.5;
  response.candidates = {top};

  std::vector<std::uint8_t> encoded;
  encode(response, encoded);
  const auto decoded = decode_response(payload_of(encoded));
  ASSERT_TRUE(decoded.has_value());
  EXPECT_EQ(decoded->model_version, 0x0102030405060708ULL);
  ASSERT_EQ(decoded->candidates.size(), 1U);
  EXPECT_EQ(decoded->candidates[0].recipes.to_u64(), 0x2AULL);

  // A default-constructed frame: version 0 round-trips too.
  ResponseFrame fixed;
  fixed.status = Status::kOk;
  std::vector<std::uint8_t> encoded_fixed;
  encode(fixed, encoded_fixed);
  const auto decoded_fixed = decode_response(payload_of(encoded_fixed));
  ASSERT_TRUE(decoded_fixed.has_value());
  EXPECT_EQ(decoded_fixed->model_version, 0U);
}

TEST(Wire, VersionQueryAndInfoRoundtrip) {
  VersionQueryFrame query;
  query.client_tag = 0xFEEDFACE0ULL;
  std::vector<std::uint8_t> encoded_query;
  encode(query, encoded_query);
  const auto decoded_query = decode_version_query(payload_of(encoded_query));
  ASSERT_TRUE(decoded_query.has_value());
  EXPECT_EQ(decoded_query->client_tag, 0xFEEDFACE0ULL);

  VersionInfoFrame info;
  info.client_tag = 0xFEEDFACE0ULL;
  info.model_version = 12;
  info.checksum = 0xDEADBEEFDEADBEEFULL;
  info.swaps = 11;
  std::vector<std::uint8_t> encoded_info;
  encode(info, encoded_info);
  const auto decoded_info = decode_version_info(payload_of(encoded_info));
  ASSERT_TRUE(decoded_info.has_value());
  EXPECT_EQ(decoded_info->client_tag, 0xFEEDFACE0ULL);
  EXPECT_EQ(decoded_info->model_version, 12U);
  EXPECT_EQ(decoded_info->checksum, 0xDEADBEEFDEADBEEFULL);
  EXPECT_EQ(decoded_info->swaps, 11U);
}

TEST(Wire, VersionFramesRejectMalformedPayloads) {
  VersionQueryFrame query;
  std::vector<std::uint8_t> encoded_query;
  encode(query, encoded_query);
  const auto query_payload = payload_of(encoded_query);
  VersionInfoFrame info;
  std::vector<std::uint8_t> encoded_info;
  encode(info, encoded_info);
  const auto info_payload = payload_of(encoded_info);

  // Cross-decoding: each decoder rejects the other frame's type byte.
  EXPECT_FALSE(decode_version_info(query_payload).has_value());
  EXPECT_FALSE(decode_version_query(info_payload).has_value());
  EXPECT_FALSE(decode_request(query_payload).has_value());

  // Truncation and trailing garbage.
  EXPECT_FALSE(
      decode_version_query(query_payload.subspan(0, query_payload.size() - 1))
          .has_value());
  EXPECT_FALSE(
      decode_version_info(info_payload.subspan(0, info_payload.size() - 1))
          .has_value());
  EXPECT_FALSE(decode_version_query({}).has_value());
  std::vector<std::uint8_t> padded(query_payload.begin(),
                                   query_payload.end());
  padded.push_back(0);
  EXPECT_FALSE(decode_version_query(padded).has_value());
}

TEST(Wire, DecodeRejectsMalformedPayloads) {
  std::vector<std::uint8_t> encoded;
  encode(sample_request(), encoded);
  const auto payload = payload_of(encoded);

  // Wrong frame type for the decoder.
  EXPECT_FALSE(decode_response(payload).has_value());

  // Truncated and trailing-garbage payloads.
  EXPECT_FALSE(decode_request(payload.subspan(0, payload.size() - 1))
                   .has_value());
  EXPECT_FALSE(decode_request(payload.subspan(0, 3)).has_value());
  EXPECT_FALSE(decode_request({}).has_value());
  std::vector<std::uint8_t> padded(payload.begin(), payload.end());
  padded.push_back(0);
  EXPECT_FALSE(decode_request(padded).has_value());

  // Out-of-range priority enum.
  std::vector<std::uint8_t> bad_priority(payload.begin(), payload.end());
  bad_priority[1] = 9;  // [0] is the type byte, [1] the priority
  EXPECT_FALSE(decode_request(bad_priority).has_value());

  // Out-of-range status enum on the response side.
  ResponseFrame response;
  response.status = Status::kOk;
  std::vector<std::uint8_t> encoded_response;
  encode(response, encoded_response);
  std::vector<std::uint8_t> bad_status(payload_of(encoded_response).begin(),
                                       payload_of(encoded_response).end());
  bad_status[1] = 200;
  EXPECT_FALSE(decode_response(bad_status).has_value());
}

TEST(Wire, FrameReaderReassemblesByteAtATime) {
  // Three frames, delivered one byte per feed(): next() must produce all
  // three payloads in order, each decodable, no matter how the stream is
  // chunked.
  std::vector<std::uint8_t> stream;
  for (int i = 0; i < 3; ++i) {
    RequestFrame request = sample_request();
    request.client_tag = static_cast<std::uint64_t>(i);
    encode(request, stream);
  }

  FrameReader reader;
  std::vector<std::uint8_t> payload;
  std::uint64_t expected_tag = 0;
  for (const std::uint8_t byte : stream) {
    reader.feed(std::span<const std::uint8_t>(&byte, 1));
    while (reader.next(payload)) {
      const auto decoded = decode_request(payload);
      ASSERT_TRUE(decoded.has_value());
      EXPECT_EQ(decoded->client_tag, expected_tag++);
    }
  }
  EXPECT_EQ(expected_tag, 3U);
  EXPECT_FALSE(reader.corrupt());
  EXPECT_FALSE(reader.next(payload));  // drained
}

TEST(Wire, FrameReaderFlagsOversizedPrefixAsCorrupt) {
  // A length prefix above the frame bound must not trigger a giant
  // allocation; the stream is marked corrupt and yields nothing.
  FrameReader reader{64};
  const std::uint8_t huge_prefix[4] = {0xFF, 0xFF, 0xFF, 0x7F};
  reader.feed(huge_prefix);
  std::vector<std::uint8_t> payload;
  EXPECT_FALSE(reader.next(payload));
  EXPECT_TRUE(reader.corrupt());

  // Corruption is sticky: later valid bytes don't resurrect the stream.
  std::vector<std::uint8_t> valid;
  encode(sample_request(), valid);
  reader.feed(valid);
  EXPECT_FALSE(reader.next(payload));
  EXPECT_TRUE(reader.corrupt());
}

TEST(Wire, StatsQueryAndStatsRoundtrip) {
  StatsQueryFrame query;
  query.client_tag = 0x0123456789ABCDEFULL;
  std::vector<std::uint8_t> encoded;
  encode(query, encoded);
  const auto decoded_query = decode_stats_query(payload_of(encoded));
  ASSERT_TRUE(decoded_query.has_value());
  EXPECT_EQ(decoded_query->client_tag, query.client_tag);

  StatsFrame stats;
  stats.client_tag = 42;
  // Arbitrary UTF-8 passes through byte-exact (the payload is opaque
  // bytes on the wire; only the HTTP layer cares that it is JSON).
  stats.json = R"({"server":{"requests":7},"note":"p99 ≤ 5ms — ok"})";
  encoded.clear();
  encode(stats, encoded);
  const auto decoded_stats = decode_stats(payload_of(encoded));
  ASSERT_TRUE(decoded_stats.has_value());
  EXPECT_EQ(decoded_stats->client_tag, 42U);
  EXPECT_EQ(decoded_stats->json, stats.json);

  // An empty document is legal (a server with nothing to report).
  StatsFrame empty;
  encoded.clear();
  encode(empty, encoded);
  const auto decoded_empty = decode_stats(payload_of(encoded));
  ASSERT_TRUE(decoded_empty.has_value());
  EXPECT_TRUE(decoded_empty->json.empty());
}

TEST(Wire, StatsDecodeRejectsLengthLies) {
  StatsFrame stats;
  stats.client_tag = 9;
  stats.json = "{\"ok\":true}";
  std::vector<std::uint8_t> encoded;
  encode(stats, encoded);
  std::vector<std::uint8_t> payload(payload_of(encoded).begin(),
                                    payload_of(encoded).end());

  // Declared JSON length larger than the remaining bytes.
  std::vector<std::uint8_t> overlong = payload;
  overlong[9] = static_cast<std::uint8_t>(stats.json.size() + 1);
  EXPECT_FALSE(decode_stats(overlong).has_value());

  // Declared length smaller: trailing garbage, equally malformed.
  std::vector<std::uint8_t> underlong = payload;
  underlong[9] = static_cast<std::uint8_t>(stats.json.size() - 1);
  EXPECT_FALSE(decode_stats(underlong).has_value());

  // Truncated before the length field.
  std::vector<std::uint8_t> truncated(payload.begin(), payload.begin() + 6);
  EXPECT_FALSE(decode_stats(truncated).has_value());

  // Wrong type byte.
  std::vector<std::uint8_t> wrong_type = payload;
  wrong_type[0] = kVersionInfoFrame;
  EXPECT_FALSE(decode_stats(wrong_type).has_value());
}

TEST(Wire, StatsFrameExactlyAtTheFrameBoundIsAccepted) {
  // The largest legal stats document: payload (type + tag + length +
  // json) exactly kMaxFrameBytes. One byte more must flag corruption —
  // the boundary itself must not.
  constexpr std::size_t kHeader = 1 + 8 + 4;
  StatsFrame stats;
  stats.client_tag = 7;
  stats.json.assign(kMaxFrameBytes - kHeader, 'x');
  stats.json.front() = '{';
  stats.json.back() = '}';
  std::vector<std::uint8_t> encoded;
  encode(stats, encoded);
  ASSERT_EQ(encoded.size(), 4 + kMaxFrameBytes);

  // Reassemble from irregular chunks (a stats scrape straddles many TCP
  // segments in practice).
  FrameReader reader;
  std::size_t offset = 0;
  std::size_t chunk = 1;
  std::vector<std::uint8_t> payload;
  while (offset < encoded.size()) {
    const std::size_t n = std::min(chunk, encoded.size() - offset);
    reader.feed(std::span<const std::uint8_t>(encoded.data() + offset, n));
    offset += n;
    chunk = chunk * 3 + 1;  // 1, 4, 13, 40, ... irregular on purpose
  }
  ASSERT_TRUE(reader.next(payload));
  EXPECT_FALSE(reader.corrupt());
  const auto decoded = decode_stats(payload);
  ASSERT_TRUE(decoded.has_value());
  EXPECT_EQ(decoded->json.size(), stats.json.size());
  EXPECT_EQ(decoded->json, stats.json);

  // One byte past the bound: corrupt stream, no payload.
  StatsFrame oversized;
  oversized.json.assign(kMaxFrameBytes - kHeader + 1, 'y');
  encoded.clear();
  encode(oversized, encoded);
  FrameReader strict;
  strict.feed(encoded);
  EXPECT_FALSE(strict.next(payload));
  EXPECT_TRUE(strict.corrupt());
}

TEST(Wire, FrameReaderInterleavesProbesWithLargeStatsFrames) {
  // A version query, a near-max stats frame, and another query on one
  // stream, fed in fixed 4093-byte chunks: the reader must yield all
  // three payloads in order with types intact.
  std::vector<std::uint8_t> stream;
  VersionQueryFrame before;
  before.client_tag = 1;
  encode(before, stream);
  StatsFrame stats;
  stats.client_tag = 2;
  stats.json.assign((1 << 19) + 37, 's');
  encode(stats, stream);
  VersionQueryFrame after;
  after.client_tag = 3;
  encode(after, stream);

  FrameReader reader;
  std::vector<std::vector<std::uint8_t>> payloads;
  std::vector<std::uint8_t> payload;
  for (std::size_t offset = 0; offset < stream.size(); offset += 4093) {
    const std::size_t n = std::min<std::size_t>(4093, stream.size() - offset);
    reader.feed(std::span<const std::uint8_t>(stream.data() + offset, n));
    while (reader.next(payload)) payloads.push_back(payload);
  }
  ASSERT_EQ(payloads.size(), 3U);
  EXPECT_EQ(payloads[0].front(), kVersionQueryFrame);
  EXPECT_EQ(payloads[1].front(), kStatsFrame);
  EXPECT_EQ(payloads[2].front(), kVersionQueryFrame);
  EXPECT_EQ(decode_version_query(payloads[0])->client_tag, 1U);
  EXPECT_EQ(decode_stats(payloads[1])->json.size(), stats.json.size());
  EXPECT_EQ(decode_version_query(payloads[2])->client_tag, 3U);
}

}  // namespace
}  // namespace vpr::serve::wire
