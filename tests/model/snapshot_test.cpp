// model::Snapshot — the checksummed on-disk format under the serving
// registry. The properties that matter operationally: a round trip is
// bitwise lossless, every corruption mode (flipped payload byte, bad
// magic, truncation anywhere, an absurd length field) surfaces as a
// LoadResult error string rather than UB or a half-loaded model, and the
// file writer is atomic (no partially-written file ever visible under the
// final name in a polled registry directory).

#include <gtest/gtest.h>
#include <sys/resource.h>

#include <cstdint>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "model/snapshot.h"

namespace vpr::model {
namespace {

namespace fs = std::filesystem;

Snapshot sample_snapshot() {
  Snapshot snapshot;
  snapshot.version = 7;
  snapshot.meta = "tune design 3 iteration 5";
  // Busy mantissas plus signed zero: round-trip equality below is bitwise.
  snapshot.state = {0.1, -2.5e-3, 1.0 / 3.0, -0.0, 7e300, -1.0 / 7.0};
  return snapshot;
}

std::string encode(const Snapshot& snapshot) {
  std::ostringstream os{std::ios::binary};
  save_snapshot(snapshot, os);
  return os.str();
}

LoadResult decode(const std::string& bytes) {
  std::istringstream is{bytes, std::ios::binary};
  return load_snapshot(is);
}

/// Peak resident set of this process so far, in KiB.
long peak_rss_kib() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return usage.ru_maxrss;
}

/// RAII temp directory; contents removed on destruction.
struct TempDir {
  fs::path path;
  TempDir() {
    path = fs::path(testing::TempDir()) / "insightalign_snapshot_test";
    fs::remove_all(path);
    fs::create_directories(path);
  }
  ~TempDir() {
    std::error_code ec;
    fs::remove_all(path, ec);
  }
};

TEST(Snapshot, RoundTripIsBitwiseLossless) {
  const Snapshot original = sample_snapshot();
  const std::string bytes = encode(original);
  const LoadResult result = decode(bytes);
  ASSERT_TRUE(result.ok()) << result.error;

  const Snapshot& loaded = *result.snapshot;
  EXPECT_EQ(loaded.version, original.version);
  EXPECT_EQ(loaded.meta, original.meta);
  EXPECT_EQ(loaded.checksum, state_checksum(original.state));
  ASSERT_EQ(loaded.state.size(), original.state.size());
  for (std::size_t i = 0; i < original.state.size(); ++i) {
    std::uint64_t sent = 0;
    std::uint64_t got = 0;
    std::memcpy(&sent, &original.state[i], sizeof(sent));
    std::memcpy(&got, &loaded.state[i], sizeof(got));
    EXPECT_EQ(got, sent) << "state[" << i << "]";
  }
}

TEST(Snapshot, ChecksumIsStableAndOrderSensitive) {
  const std::vector<double> state = {1.0, 2.0, 3.0};
  EXPECT_EQ(state_checksum(state), state_checksum(state));
  const std::vector<double> swapped = {2.0, 1.0, 3.0};
  EXPECT_NE(state_checksum(state), state_checksum(swapped));
  // The empty state hashes to the FNV-1a offset basis, not zero.
  EXPECT_NE(state_checksum(std::vector<double>{}), 0u);
}

TEST(Snapshot, FlippedPayloadByteFailsTheChecksum) {
  const std::string bytes = encode(sample_snapshot());
  // Header is magic + version + checksum + meta length (+ meta) + count;
  // anything past that is parameter payload.
  const std::size_t header =
      4 * sizeof(std::uint64_t) + sample_snapshot().meta.size() +
      sizeof(std::uint64_t);
  ASSERT_LT(header, bytes.size());
  std::string corrupt = bytes;
  corrupt[header + 2] = static_cast<char>(corrupt[header + 2] ^ 0x01);
  const LoadResult result = decode(corrupt);
  ASSERT_FALSE(result.ok());
  EXPECT_NE(result.error.find("checksum mismatch"), std::string::npos)
      << result.error;
}

TEST(Snapshot, BadMagicIsRejected) {
  std::string bytes = encode(sample_snapshot());
  bytes[0] = 'X';
  const LoadResult result = decode(bytes);
  ASSERT_FALSE(result.ok());
  EXPECT_NE(result.error.find("bad magic"), std::string::npos);

  // An empty stream is a truncated header, not a crash.
  const LoadResult empty = decode(std::string{});
  ASSERT_FALSE(empty.ok());
  EXPECT_NE(empty.error.find("truncated"), std::string::npos);
}

TEST(Snapshot, TruncationAtEveryLengthFailsCleanly) {
  // Cutting the file at any byte boundary must yield an error result —
  // never UB, never a snapshot built from partial data.
  const std::string bytes = encode(sample_snapshot());
  for (std::size_t len = 0; len < bytes.size(); ++len) {
    const LoadResult result = decode(bytes.substr(0, len));
    EXPECT_FALSE(result.ok()) << "length " << len;
    EXPECT_FALSE(result.error.empty()) << "length " << len;
  }
}

TEST(Snapshot, ImplausibleParameterCountDoesNotAllocate) {
  // A corrupted count field must be rejected by the sanity bound before it
  // can size a multi-gigabyte allocation.
  Snapshot snapshot = sample_snapshot();
  snapshot.meta.clear();
  std::string bytes = encode(snapshot);
  const std::size_t count_offset = 4 * sizeof(std::uint64_t);
  const std::uint64_t huge = 1ULL << 40;
  std::memcpy(bytes.data() + count_offset, &huge, sizeof(huge));
  const LoadResult result = decode(bytes);
  ASSERT_FALSE(result.ok());
  EXPECT_NE(result.error.find("implausible parameter count"),
            std::string::npos)
      << result.error;
}

TEST(Snapshot, PlausibleCountWithoutPayloadDoesNotAllocateIt) {
  // A count under the sanity bound (2^26 doubles = 512 MiB) followed by
  // EOF must fail without the reader first allocating what it claims.
  Snapshot snapshot = sample_snapshot();
  snapshot.meta.clear();
  std::string bytes = encode(snapshot);
  const std::size_t count_offset = 4 * sizeof(std::uint64_t);
  const std::uint64_t claimed = 1ULL << 26;
  std::memcpy(bytes.data() + count_offset, &claimed, sizeof(claimed));
  bytes.resize(count_offset + sizeof(claimed));
  const long before = peak_rss_kib();
  const LoadResult result = decode(bytes);
  const long grown_kib = peak_rss_kib() - before;
  ASSERT_FALSE(result.ok());
  EXPECT_NE(result.error.find("truncated parameter payload"),
            std::string::npos)
      << result.error;
  EXPECT_LT(grown_kib, 64 * 1024) << "peak RSS grew by " << grown_kib
                                  << " KiB";
}

TEST(Snapshot, FilenameRoundTripsAndRejectsForeignNames) {
  EXPECT_EQ(snapshot_filename(1), "v00000001.snap");
  EXPECT_EQ(snapshot_filename(12345678), "v12345678.snap");
  // Widths beyond 8 digits still round-trip (no truncation at the pad).
  EXPECT_EQ(snapshot_filename(123456789), "v123456789.snap");

  for (const std::uint64_t v : {1ULL, 42ULL, 99999999ULL, 123456789ULL}) {
    const auto parsed = parse_snapshot_filename(snapshot_filename(v));
    ASSERT_TRUE(parsed.has_value()) << snapshot_filename(v);
    EXPECT_EQ(*parsed, v);
  }

  for (const char* bad :
       {"", "v.snap", "x00000001.snap", "v0000000a.snap", "00000001.snap",
        "v00000001.snp", "v00000001.snap.tmp", "v-1.snap",
        "v99999999999999999999.snap"}) {
    EXPECT_FALSE(parse_snapshot_filename(bad).has_value()) << bad;
  }
}

TEST(Snapshot, FileWriterIsAtomicAndLoaderPrefixesThePath) {
  TempDir dir;
  const Snapshot snapshot = sample_snapshot();
  const std::string path = (dir.path / snapshot_filename(7)).string();
  ASSERT_TRUE(save_snapshot_file(snapshot, path));
  // The temp file from the write-then-rename protocol must be gone.
  EXPECT_FALSE(fs::exists(path + ".tmp"));

  const LoadResult loaded = load_snapshot_file(path);
  ASSERT_TRUE(loaded.ok()) << loaded.error;
  EXPECT_EQ(loaded.snapshot->version, 7u);
  EXPECT_EQ(loaded.snapshot->state, snapshot.state);

  // A missing file reports its path; so does a corrupt one.
  const LoadResult missing =
      load_snapshot_file((dir.path / "v00000099.snap").string());
  ASSERT_FALSE(missing.ok());
  EXPECT_NE(missing.error.find("v00000099.snap"), std::string::npos);

  {
    std::ofstream os{path, std::ios::binary | std::ios::trunc};
    os << "not a snapshot";
  }
  const LoadResult corrupt = load_snapshot_file(path);
  ASSERT_FALSE(corrupt.ok());
  EXPECT_NE(corrupt.error.find(path), std::string::npos);

  // An unwritable target fails with `false`, not an exception.
  EXPECT_FALSE(save_snapshot_file(
      snapshot, (dir.path / "missing_subdir" / "v00000001.snap").string()));
}

}  // namespace
}  // namespace vpr::model
