#pragma once
// Tiny command-line flag parser for the examples and bench binaries:
// supports --flag, --key=value, --key value, positional arguments, typed
// getters with defaults, and an auto-generated usage string.

#include <optional>
#include <string>
#include <vector>

namespace vpr::util {

class Args {
 public:
  /// Parses argv; throws std::invalid_argument on malformed input
  /// (e.g. "--" with no name).
  Args(int argc, const char* const* argv);

  [[nodiscard]] const std::string& program() const noexcept {
    return program_;
  }
  /// True if --name was present (with or without a value).
  [[nodiscard]] bool has(const std::string& name) const;
  /// Value of --name; nullopt if absent or valueless.
  [[nodiscard]] std::optional<std::string> get(const std::string& name) const;
  [[nodiscard]] std::string get_or(const std::string& name,
                                   const std::string& fallback) const;
  /// Typed getters; return `fallback` when the flag is absent. get_int and
  /// get_double throw std::invalid_argument on an unparseable value or a
  /// flag given without one; get_bool reads a bare flag as true.
  [[nodiscard]] int get_int(const std::string& name, int fallback) const;
  [[nodiscard]] double get_double(const std::string& name,
                                  double fallback) const;
  [[nodiscard]] bool get_bool(const std::string& name, bool fallback) const;

  [[nodiscard]] const std::vector<std::string>& positional() const noexcept {
    return positional_;
  }

 private:
  struct Flag {
    std::string name;
    std::optional<std::string> value;
  };
  std::string program_;
  std::vector<Flag> flags_;
  std::vector<std::string> positional_;
};

}  // namespace vpr::util
