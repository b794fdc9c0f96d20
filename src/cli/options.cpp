#include "cli/options.h"

#include <charconv>
#include <fstream>
#include <sstream>

namespace vpr::cli {

namespace {

int parse_strict_int(const std::string& token, const std::string& context) {
  int value = 0;
  const char* begin = token.data();
  const char* end = begin + token.size();
  const auto [ptr, ec] = std::from_chars(begin, end, value);
  if (ec != std::errc{} || ptr != end) {
    throw UsageError("bad integer '" + token + "' in " + context);
  }
  return value;
}

}  // namespace

Command parse_command(const std::string& name) {
  if (name == "suite") return Command::kSuite;
  if (name == "recipes") return Command::kRecipes;
  if (name == "run") return Command::kRun;
  if (name == "probe") return Command::kProbe;
  if (name == "align") return Command::kAlign;
  if (name == "recommend") return Command::kRecommend;
  if (name == "tune") return Command::kTune;
  if (name == "serve") return Command::kServe;
  if (name == "serve-bench") return Command::kServeBench;
  if (name == "publish") return Command::kPublish;
  if (name == "metrics") return Command::kMetrics;
  if (name == "trace-merge") return Command::kTraceMerge;
  throw UsageError("unknown command '" + name + "'");
}

int parse_port(const std::string& text, const std::string& context) {
  const int port = parse_strict_int(text, context);
  if (port < 1 || port > 65535) {
    throw UsageError(context + ": port " + text + " out of range 1..65535");
  }
  return port;
}

HostPort parse_host_port(const std::string& text,
                         const std::string& context) {
  HostPort hp;
  const auto colon = text.rfind(':');
  if (colon == std::string::npos) {
    hp.port = parse_port(text, context);  // bare port, loopback default
    return hp;
  }
  hp.host = text.substr(0, colon);
  if (hp.host.empty()) {
    throw UsageError(context + ": empty host in '" + text + "'");
  }
  hp.port = parse_port(text.substr(colon + 1), context);
  return hp;
}

std::vector<int> parse_int_list(const std::string& text) {
  std::vector<int> out;
  std::istringstream is{text};
  std::string token;
  while (std::getline(is, token, ',')) {
    if (!token.empty()) {
      out.push_back(parse_strict_int(token, "list '" + text + "'"));
    }
  }
  return out;
}

std::vector<int> parse_design_spec(const std::string& text) {
  const auto dash = text.find('-');
  if (dash != std::string::npos) {
    const int lo =
        parse_strict_int(text.substr(0, dash), "range '" + text + "'");
    const int hi =
        parse_strict_int(text.substr(dash + 1), "range '" + text + "'");
    if (lo > hi) throw UsageError("empty design range '" + text + "'");
    std::vector<int> out;
    out.reserve(static_cast<std::size_t>(hi - lo + 1));
    for (int k = lo; k <= hi; ++k) out.push_back(k);
    return out;
  }
  return parse_int_list(text);
}

int parse_design_index(const util::Args& args, const std::string& command,
                       int max_design) {
  int index = 0;
  try {
    index = args.get_int("design", 0);
  } catch (const std::invalid_argument&) {
    throw UsageError(command + ": --design must be an integer");
  }
  if (index < 1 || index > max_design) {
    throw UsageError(command + ": --design 1.." +
                     std::to_string(max_design) + " required");
  }
  return index;
}

int parse_bounded_int(const util::Args& args, const std::string& flag,
                      int fallback, int max, const std::string& command) {
  const std::string range = "1.." + std::to_string(max);
  int value = 0;
  try {
    value = args.get_int(flag, fallback);
  } catch (const std::invalid_argument&) {
    throw UsageError(command + ": --" + flag + " must be an integer in " +
                     range);
  }
  if (value < 1 || value > max) {
    throw UsageError(command + ": --" + flag + " " + std::to_string(value) +
                     " out of range " + range);
  }
  return value;
}

void require_readable(const std::string& path, const std::string& what) {
  std::ifstream is{path, std::ios::binary};
  if (!is) throw UsageError("cannot read " + what + " " + path);
}

std::optional<std::string> parse_output_path(const util::Args& args,
                                             const std::string& flag) {
  if (!args.has(flag)) return std::nullopt;
  const auto value = args.get(flag);
  if (!value.has_value() || value->empty()) {
    throw UsageError("--" + flag + " requires a file path");
  }
  return value;
}

MetricsFormat parse_metrics_format(const util::Args& args) {
  const std::string format = args.get_or("format", "json");
  if (format == "json") return MetricsFormat::kJson;
  if (format == "prometheus" || format == "prom") {
    return MetricsFormat::kPrometheus;
  }
  throw UsageError("metrics: --format must be json or prometheus, got '" +
                   format + "'");
}

}  // namespace vpr::cli
