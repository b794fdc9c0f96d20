#include "model/snapshot.h"

#include <algorithm>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <istream>
#include <ostream>
#include <sstream>
#include <stdexcept>

#include "util/serialize.h"

namespace vpr::model {

namespace {

/// "IASNAP1\0" as a little-endian u64.
constexpr std::uint64_t kMagic = 0x0031'5041'4e53'4149ULL;
/// Parameter-count sanity bound: the recipe model is ~20k doubles; a
/// gigaparameter count in an 8-byte header field is corruption, and the
/// reader must not let it size an allocation.
constexpr std::uint64_t kMaxParams = 1ULL << 28;
constexpr std::uint64_t kMaxMetaBytes = 1ULL << 16;

LoadResult fail(std::string message) {
  LoadResult result;
  result.error = std::move(message);
  return result;
}

}  // namespace

std::uint64_t state_checksum(std::span<const double> state) {
  // FNV-1a 64 over the raw byte image — the same bytes save_snapshot
  // writes, so a snapshot's checksum is stable across processes.
  std::uint64_t hash = 0xcbf29ce484222325ULL;
  const auto* bytes = reinterpret_cast<const unsigned char*>(state.data());
  const std::size_t n = state.size() * sizeof(double);
  for (std::size_t i = 0; i < n; ++i) {
    hash ^= bytes[i];
    hash *= 0x100000001b3ULL;
  }
  return hash;
}

void save_snapshot(const Snapshot& snapshot, std::ostream& os) {
  util::write_pod(os, kMagic);
  util::write_pod(os, snapshot.version);
  util::write_pod(os, state_checksum(snapshot.state));
  util::write_string(os, snapshot.meta);
  util::write_pod(os, static_cast<std::uint64_t>(snapshot.state.size()));
  os.write(reinterpret_cast<const char*>(snapshot.state.data()),
           static_cast<std::streamsize>(snapshot.state.size() *
                                        sizeof(double)));
  if (!os) throw std::runtime_error("save_snapshot: stream write failed");
}

bool save_snapshot_file(const Snapshot& snapshot, const std::string& path) {
  // Write-then-rename: a registry directory is polled by live servers, so
  // a half-written snapshot must never be visible under its final name.
  const std::string tmp = path + ".tmp";
  {
    std::ofstream os{tmp, std::ios::binary | std::ios::trunc};
    if (!os) return false;
    try {
      save_snapshot(snapshot, os);
    } catch (const std::runtime_error&) {
      os.close();
      std::remove(tmp.c_str());
      return false;
    }
  }
  std::error_code ec;
  std::filesystem::rename(tmp, path, ec);
  if (ec) {
    std::remove(tmp.c_str());
    return false;
  }
  return true;
}

LoadResult load_snapshot(std::istream& is) {
  std::uint64_t magic = 0;
  if (!util::read_pod(is, magic)) return fail("truncated header");
  if (magic != kMagic) return fail("bad magic (not a snapshot file)");
  Snapshot snapshot;
  std::uint64_t stored_checksum = 0;
  if (!util::read_pod(is, snapshot.version) ||
      !util::read_pod(is, stored_checksum)) {
    return fail("truncated header");
  }
  if (!util::read_string(is, snapshot.meta) ||
      snapshot.meta.size() > kMaxMetaBytes) {
    return fail("bad meta field");
  }
  std::uint64_t count = 0;
  if (!util::read_pod(is, count)) return fail("truncated header");
  if (count > kMaxParams) return fail("implausible parameter count");
  // The payload grows only as its bytes arrive, one bounded chunk at a
  // time: a plausible count followed by a short file must not make the
  // reader allocate (and zero) the full claimed size first.
  constexpr std::uint64_t kChunk = 1ULL << 16;  // doubles per read
  while (snapshot.state.size() < count) {
    const std::size_t have = snapshot.state.size();
    const std::size_t n = std::min(kChunk, count - have);
    snapshot.state.resize(have + n);
    is.read(reinterpret_cast<char*>(snapshot.state.data() + have),
            static_cast<std::streamsize>(n * sizeof(double)));
    if (!is) return fail("truncated parameter payload");
  }
  const std::uint64_t computed = state_checksum(snapshot.state);
  if (computed != stored_checksum) {
    std::ostringstream msg;
    msg << "checksum mismatch (stored " << std::hex << stored_checksum
        << ", computed " << computed << ")";
    return fail(msg.str());
  }
  snapshot.checksum = computed;
  LoadResult result;
  result.snapshot = std::move(snapshot);
  return result;
}

LoadResult load_snapshot_file(const std::string& path) {
  std::ifstream is{path, std::ios::binary};
  if (!is) return fail("cannot open " + path);
  LoadResult result = load_snapshot(is);
  if (!result.ok()) result.error = path + ": " + result.error;
  return result;
}

std::string snapshot_filename(std::uint64_t version) {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "v%08llu.snap",
                static_cast<unsigned long long>(version));
  return buf;
}

std::optional<std::uint64_t> parse_snapshot_filename(
    const std::string& filename) {
  // v<digits>.snap, nothing else.
  if (filename.size() < 7 || filename.front() != 'v') return std::nullopt;
  const std::size_t dot = filename.size() - 5;
  if (filename.substr(dot) != ".snap") return std::nullopt;
  std::uint64_t version = 0;
  if (dot == 1) return std::nullopt;
  for (std::size_t i = 1; i < dot; ++i) {
    const char c = filename[i];
    if (c < '0' || c > '9') return std::nullopt;
    if (version > (UINT64_MAX - 9) / 10) return std::nullopt;
    version = version * 10 + static_cast<std::uint64_t>(c - '0');
  }
  return version;
}

}  // namespace vpr::model
