#include "util/args.h"

#include <algorithm>
#include <stdexcept>

namespace vpr::util {

Args::Args(int argc, const char* const* argv) {
  if (argc < 1 || argv == nullptr) {
    throw std::invalid_argument("Args: empty argv");
  }
  program_ = argv[0];
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg.rfind("--", 0) == 0) {
      if (arg.size() == 2) {
        throw std::invalid_argument("Args: bare '--' is not a flag");
      }
      const auto eq = arg.find('=');
      if (eq != std::string::npos) {
        flags_.push_back({arg.substr(2, eq - 2), arg.substr(eq + 1)});
      } else if (i + 1 < argc &&
                 std::string(argv[i + 1]).rfind("--", 0) != 0) {
        flags_.push_back({arg.substr(2), std::string(argv[i + 1])});
        ++i;
      } else {
        flags_.push_back({arg.substr(2), std::nullopt});
      }
    } else {
      positional_.push_back(arg);
    }
  }
}

bool Args::has(const std::string& name) const {
  return std::any_of(flags_.begin(), flags_.end(),
                     [&](const Flag& f) { return f.name == name; });
}

std::optional<std::string> Args::get(const std::string& name) const {
  for (const auto& f : flags_) {
    if (f.name == name) return f.value;
  }
  return std::nullopt;
}

std::string Args::get_or(const std::string& name,
                         const std::string& fallback) const {
  const auto v = get(name);
  return v.has_value() ? *v : fallback;
}

// A numeric flag given without a value parses as "" and throws: reading it
// as absent would silently run with the fallback.
int Args::get_int(const std::string& name, int fallback) const {
  if (!has(name)) return fallback;
  const std::string v = get(name).value_or("");
  try {
    std::size_t pos = 0;
    const int out = std::stoi(v, &pos);
    if (pos != v.size()) throw std::invalid_argument("trailing");
    return out;
  } catch (const std::exception&) {
    throw std::invalid_argument("Args: --" + name +
                                " expects an integer, got '" + v + "'");
  }
}

double Args::get_double(const std::string& name, double fallback) const {
  if (!has(name)) return fallback;
  const std::string v = get(name).value_or("");
  try {
    std::size_t pos = 0;
    const double out = std::stod(v, &pos);
    if (pos != v.size()) throw std::invalid_argument("trailing");
    return out;
  } catch (const std::exception&) {
    throw std::invalid_argument("Args: --" + name +
                                " expects a number, got '" + v + "'");
  }
}

bool Args::get_bool(const std::string& name, bool fallback) const {
  const auto v = get(name);
  if (!v.has_value()) return has(name) ? true : fallback;
  if (*v == "true" || *v == "1" || *v == "yes") return true;
  if (*v == "false" || *v == "0" || *v == "no") return false;
  throw std::invalid_argument("Args: --" + name + " expects a boolean, got '" +
                              *v + "'");
}

}  // namespace vpr::util
