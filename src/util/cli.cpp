#include "util/cli.hpp"

#include <cstdlib>
#include <limits>

#include "util/error.hpp"

namespace ldga {

CliArgs::CliArgs(int argc, const char* const* argv) {
  for (int i = 1; i < argc; ++i) {
    const std::string token = argv[i];
    if (token.rfind("--", 0) == 0) {
      const std::string name = token.substr(2);
      if (name.empty()) throw ConfigError("cli: bare '--' is not a flag");
      const bool has_value =
          i + 1 < argc && std::string(argv[i + 1]).rfind("--", 0) != 0;
      if (has_value) {
        named_[name] = argv[++i];
      } else {
        named_[name] = "";
      }
    } else {
      positional_.push_back(token);
    }
  }
}

bool CliArgs::has(const std::string& name) const {
  queried_[name] = true;
  return named_.count(name) > 0;
}

std::string CliArgs::get(const std::string& name,
                         const std::string& fallback) const {
  queried_[name] = true;
  const auto found = named_.find(name);
  return found == named_.end() ? fallback : found->second;
}

std::int64_t CliArgs::get_int(const std::string& name,
                              std::int64_t fallback) const {
  queried_[name] = true;
  const auto found = named_.find(name);
  if (found == named_.end()) return fallback;
  char* end = nullptr;
  const std::int64_t value = std::strtoll(found->second.c_str(), &end, 10);
  if (end == found->second.c_str() || *end != '\0') {
    throw ConfigError("cli: --" + name + " expects an integer, got '" +
                      found->second + "'");
  }
  return value;
}

std::uint32_t CliArgs::get_count(const std::string& name,
                                 std::uint32_t fallback) const {
  constexpr std::int64_t kMax = std::numeric_limits<std::uint32_t>::max();
  const std::int64_t value = get_int(name, fallback);
  if (value < 0 || value > kMax) {
    throw ConfigError("cli: --" + name + " expects a count in [0, " +
                      std::to_string(kMax) + "], got " +
                      std::to_string(value));
  }
  return static_cast<std::uint32_t>(value);
}

double CliArgs::get_double(const std::string& name, double fallback) const {
  queried_[name] = true;
  const auto found = named_.find(name);
  if (found == named_.end()) return fallback;
  char* end = nullptr;
  const double value = std::strtod(found->second.c_str(), &end);
  if (end == found->second.c_str() || *end != '\0') {
    throw ConfigError("cli: --" + name + " expects a number, got '" +
                      found->second + "'");
  }
  return value;
}

bool CliArgs::get_bool(const std::string& name, bool fallback) const {
  queried_[name] = true;
  const auto found = named_.find(name);
  if (found == named_.end()) return fallback;
  if (found->second.empty() || found->second == "true" ||
      found->second == "1" || found->second == "yes") {
    return true;
  }
  if (found->second == "false" || found->second == "0" ||
      found->second == "no") {
    return false;
  }
  throw ConfigError("cli: --" + name + " expects a boolean, got '" +
                    found->second + "'");
}

std::vector<std::string> CliArgs::unused() const {
  std::vector<std::string> names;
  for (const auto& [name, value] : named_) {
    (void)value;
    if (!queried_.count(name)) names.push_back(name);
  }
  return names;
}

}  // namespace ldga
