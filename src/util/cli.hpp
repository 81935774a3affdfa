// A minimal command-line flag parser for the example/driver binaries:
// --name value and --flag forms, typed accessors with defaults, unknown
// flag detection. Deliberately tiny — no external dependency.
#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <vector>

namespace ldga {

class CliArgs {
 public:
  /// Parses argv. Tokens "--name value" become named options; a token
  /// "--name" followed by another "--..." (or nothing) becomes a
  /// boolean flag; bare tokens become positional arguments.
  CliArgs(int argc, const char* const* argv);

  bool has(const std::string& name) const;

  std::string get(const std::string& name,
                  const std::string& fallback) const;
  std::int64_t get_int(const std::string& name, std::int64_t fallback) const;
  /// get_int for counts (sizes, workers, budgets): throws ConfigError
  /// unless the value fits [0, 2^32 - 1].
  std::uint32_t get_count(const std::string& name,
                          std::uint32_t fallback) const;
  double get_double(const std::string& name, double fallback) const;
  bool get_bool(const std::string& name, bool fallback = false) const;

  const std::vector<std::string>& positional() const { return positional_; }

  /// Flags that were parsed but never queried; call after all get()s to
  /// reject typos. (Returns names without the leading "--".)
  std::vector<std::string> unused() const;

 private:
  std::map<std::string, std::string> named_;  // "" value = boolean flag
  std::vector<std::string> positional_;
  mutable std::map<std::string, bool> queried_;
};

}  // namespace ldga
