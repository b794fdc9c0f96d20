#pragma once
// Argument validation helpers behind the insightalign binary, split out of
// main.cpp so the usage paths (bad range specs, unknown commands,
// unreadable paths) are unit-testable without spawning the binary: the
// helpers throw UsageError, which main() turns into the usage text and
// exit code 2.

#include <optional>
#include <stdexcept>
#include <string>
#include <vector>

#include "util/args.h"

namespace vpr::cli {

/// Invalid command-line input; main() prints usage and exits 2.
class UsageError : public std::runtime_error {
 public:
  using std::runtime_error::runtime_error;
};

enum class Command {
  kSuite,
  kRecipes,
  kRun,
  kProbe,
  kAlign,
  kRecommend,
  kTune,
  kServe,
  kServeBench,
  kPublish,
  kMetrics,
  kTraceMerge,
};

/// Maps the first positional argument to a Command; throws UsageError on
/// an unknown name.
[[nodiscard]] Command parse_command(const std::string& name);

/// TCP endpoint parsed from --connect; host defaults to loopback when the
/// spec is a bare port.
struct HostPort {
  std::string host = "127.0.0.1";
  int port = 0;
};

/// Strict TCP port in [1, 65535]; throws UsageError otherwise. `context`
/// prefixes the message ("serve --listen", ...).
[[nodiscard]] int parse_port(const std::string& text,
                             const std::string& context);

/// "HOST:PORT" or bare "PORT" (host defaults to 127.0.0.1). Throws
/// UsageError on a bad port or an empty host like ":9000".
[[nodiscard]] HostPort parse_host_port(const std::string& text,
                                       const std::string& context);

/// "1,8,24" -> {1,8,24}. Strict: a non-integer token throws UsageError
/// (the seed parser silently let std::stoi truncate "8x" to 8).
[[nodiscard]] std::vector<int> parse_int_list(const std::string& text);

/// "1-6" -> {1,...,6}; "3" -> {3}; "1,4,7" -> {1,4,7}. Throws UsageError
/// on malformed bounds or an empty range like "6-1".
[[nodiscard]] std::vector<int> parse_design_spec(const std::string& text);

/// --design as a suite index in [1, max_design]; throws UsageError when
/// missing, unparseable, or out of range. `command` prefixes the message.
[[nodiscard]] int parse_design_index(const util::Args& args,
                                     const std::string& command,
                                     int max_design);

/// Upper bounds of `insightalign serve`'s resource flags. Each replica
/// starts a batcher thread, and each admitted request holds a decode
/// session of 2 x width lanes, so these cap what one command line can pin.
inline constexpr int kMaxServeReplicas = 64;
inline constexpr int kMaxServeInflight = 1024;
inline constexpr int kMaxServeWidth = 64;

/// --flag as an integer in [1, max], or `fallback` when absent. Throws
/// UsageError on a value that is missing, unparseable or out of range.
/// `command` prefixes the message.
[[nodiscard]] int parse_bounded_int(const util::Args& args,
                                    const std::string& flag, int fallback,
                                    int max, const std::string& command);

/// Throws UsageError ("cannot read <what> <path>") unless `path` opens for
/// reading. Used for --model / --dataset before any expensive work.
void require_readable(const std::string& path, const std::string& what);

/// Output-file flag shared by every subcommand (--trace-out, --metrics-out):
/// nullopt when the flag is absent; UsageError when it is present without a
/// value (a bare "--trace-out" would otherwise silently drop the trace).
[[nodiscard]] std::optional<std::string> parse_output_path(
    const util::Args& args, const std::string& flag);

enum class MetricsFormat { kJson, kPrometheus };

/// --format for `insightalign metrics`: "json" (default) or "prometheus";
/// anything else throws UsageError.
[[nodiscard]] MetricsFormat parse_metrics_format(const util::Args& args);

}  // namespace vpr::cli
