// Minimal command-line flag parsing for the tools and bench binaries.
//
// Supports --name=value and --name value, boolean switches (--csv,
// --trace), positional arguments, and unknown-flag detection. Deliberately
// tiny: no registration phase, no global state — each binary asks for what
// it needs and then calls UnknownFlags() to reject typos.
#pragma once

#include <cstdint>
#include <optional>
#include <set>
#include <string>
#include <string_view>
#include <vector>

namespace memfs {

class FlagParser {
 public:
  FlagParser(int argc, char** argv);

  // Typed accessors; each marks the flag as recognized.
  std::string GetString(std::string_view name, std::string_view fallback);
  std::uint64_t GetUint(std::string_view name, std::uint64_t fallback);
  double GetDouble(std::string_view name, double fallback);
  // True when the flag is present with no value or a truthy value
  // ("1", "true", "yes"); false when absent or falsy.
  bool GetBool(std::string_view name, bool fallback = false);

  // Arguments that are not flags, in order.
  const std::vector<std::string>& positional() const { return positional_; }

  // Flags that were supplied but never asked for (typos).
  std::vector<std::string> UnknownFlags() const;

  const std::string& program() const { return program_; }

 private:
  struct Flag {
    std::string name;
    std::optional<std::string> value;
  };

  const Flag* Find(std::string_view name) const;
  void MarkRecognized(std::string_view name);

  std::string program_;
  std::vector<Flag> flags_;
  std::vector<std::string> positional_;
  std::set<std::string, std::less<>> recognized_;
};

}  // namespace memfs
