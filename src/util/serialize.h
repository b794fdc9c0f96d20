#pragma once
// Shared binary serialization helpers for the on-disk files: the offline
// dataset / cross-validation artifacts (align/cache.cpp) and the model
// snapshots (model/snapshot.cpp). Little-endian PODs, length-prefixed
// strings; readers validate stream state and bound every length field.

#include <cstdint>
#include <cstdlib>
#include <istream>
#include <ostream>
#include <string>
#include <type_traits>

namespace vpr::util {

template <typename T>
void write_pod(std::ostream& os, const T& value) {
  static_assert(std::is_trivially_copyable_v<T>);
  os.write(reinterpret_cast<const char*>(&value), sizeof(T));
}

template <typename T>
[[nodiscard]] bool read_pod(std::istream& is, T& value) {
  static_assert(std::is_trivially_copyable_v<T>);
  is.read(reinterpret_cast<char*>(&value), sizeof(T));
  return static_cast<bool>(is);
}

inline void write_string(std::ostream& os, const std::string& s) {
  write_pod(os, static_cast<std::uint64_t>(s.size()));
  os.write(s.data(), static_cast<std::streamsize>(s.size()));
}

[[nodiscard]] inline bool read_string(std::istream& is, std::string& s) {
  std::uint64_t n = 0;
  if (!read_pod(is, n) || n > (1u << 20)) return false;
  s.resize(n);
  is.read(s.data(), static_cast<std::streamsize>(n));
  return static_cast<bool>(is);
}

/// Cache directory from INSIGHTALIGN_CACHE_DIR (default "insightalign_cache"
/// under the current directory). Created on demand by the save paths.
[[nodiscard]] inline std::string cache_dir() {
  if (const char* dir = std::getenv("INSIGHTALIGN_CACHE_DIR")) return dir;
  return "insightalign_cache";
}

}  // namespace vpr::util
