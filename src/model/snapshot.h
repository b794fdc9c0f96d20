#pragma once
// Versioned, checksummed on-disk model snapshots — the one file format of
// the aligned model: the CLI's --model files, the bench hold-out cache and
// serve::ModelRegistry directories. A snapshot is the flattened
// nn::Module state() vector (raw little-endian IEEE-754 doubles) wrapped
// in a header that makes corruption and truncation detectable *before*
// the weights reach a live replica:
//
//   u64  magic      "IASNAP1\0"
//   u64  version    registry version id (monotone per registry directory;
//                   0 in a file written outside a registry)
//   u64  checksum   FNV-1a 64 over the raw parameter bytes
//   u64  meta bytes + meta string (free-form provenance, e.g. "tune iter 3")
//   u64  param count
//   f64[param count]
//
// Readers validate every length field and re-hash the payload: a flipped
// bit fails the checksum, a truncated file fails the read — both surface
// as a LoadResult error string, never as UB or a half-loaded model.

#include <cstdint>
#include <iosfwd>
#include <optional>
#include <span>
#include <string>
#include <vector>

namespace vpr::model {

/// One versioned weight snapshot. `checksum` is filled by save/load; a
/// default-constructed snapshot has checksum 0 until saved.
struct Snapshot {
  std::uint64_t version = 0;
  /// Free-form provenance ("seed", "tune iter=3 best=0.81", ...).
  std::string meta;
  /// Flattened parameters in nn::Module::state() order.
  std::vector<double> state;
  std::uint64_t checksum = 0;
};

/// FNV-1a 64 over the raw little-endian bytes of the parameter vector.
[[nodiscard]] std::uint64_t state_checksum(std::span<const double> state);

/// Outcome of a snapshot load: either a snapshot or a diagnosis. Loaders
/// never throw on malformed input — a bad file on disk is an operational
/// condition, not a programming error.
struct LoadResult {
  std::optional<Snapshot> snapshot;
  std::string error;  // non-empty iff !snapshot
  [[nodiscard]] bool ok() const noexcept { return snapshot.has_value(); }
};

/// Serialize `snapshot` (computing its checksum). Throws std::runtime_error
/// when the stream write fails (disk full, unwritable target).
void save_snapshot(const Snapshot& snapshot, std::ostream& os);
/// save_snapshot to `path` (atomically: temp file + rename). Returns false
/// instead of throwing on I/O failure.
[[nodiscard]] bool save_snapshot_file(const Snapshot& snapshot,
                                      const std::string& path);

[[nodiscard]] LoadResult load_snapshot(std::istream& is);
[[nodiscard]] LoadResult load_snapshot_file(const std::string& path);

/// Canonical registry-directory filename for a version: "v%08u.snap".
[[nodiscard]] std::string snapshot_filename(std::uint64_t version);
/// Parse a snapshot_filename back to its version; nullopt for anything
/// else (foreign files in the registry directory are ignored, not errors).
[[nodiscard]] std::optional<std::uint64_t> parse_snapshot_filename(
    const std::string& filename);

}  // namespace vpr::model
