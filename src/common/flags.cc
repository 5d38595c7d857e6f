#include "common/flags.h"

#include <algorithm>
#include <charconv>
#include <cstdlib>

namespace memfs {

FlagParser::FlagParser(int argc, char** argv) {
  if (argc > 0) program_ = argv[0];
  for (int i = 1; i < argc; ++i) {
    const std::string_view arg = argv[i];
    if (arg.rfind("--", 0) != 0) {
      positional_.emplace_back(arg);
      continue;
    }
    const std::string_view body = arg.substr(2);
    const auto eq = body.find('=');
    if (eq != std::string_view::npos) {
      flags_.push_back(
          Flag{std::string(body.substr(0, eq)),
               std::string(body.substr(eq + 1))});
      continue;
    }
    // "--name value" form: consume the next token as the value unless it
    // looks like another flag.
    if (i + 1 < argc && std::string_view(argv[i + 1]).rfind("--", 0) != 0) {
      flags_.push_back(Flag{std::string(body), std::string(argv[i + 1])});
      ++i;
    } else {
      flags_.push_back(Flag{std::string(body), std::nullopt});
    }
  }
}

const FlagParser::Flag* FlagParser::Find(std::string_view name) const {
  for (const auto& flag : flags_) {
    if (flag.name == name) return &flag;
  }
  return nullptr;
}

void FlagParser::MarkRecognized(std::string_view name) {
  recognized_.insert(std::string(name));
}

std::string FlagParser::GetString(std::string_view name,
                                  std::string_view fallback) {
  MarkRecognized(name);
  const Flag* flag = Find(name);
  if (flag == nullptr || !flag->value.has_value()) {
    return std::string(fallback);
  }
  return *flag->value;
}

std::uint64_t FlagParser::GetUint(std::string_view name,
                                  std::uint64_t fallback) {
  MarkRecognized(name);
  const Flag* flag = Find(name);
  if (flag == nullptr || !flag->value.has_value()) return fallback;
  std::uint64_t out = 0;
  const auto& text = *flag->value;
  auto [ptr, ec] = std::from_chars(text.data(), text.data() + text.size(),
                                   out);
  if (ec != std::errc() || ptr != text.data() + text.size()) return fallback;
  return out;
}

double FlagParser::GetDouble(std::string_view name, double fallback) {
  MarkRecognized(name);
  const Flag* flag = Find(name);
  if (flag == nullptr || !flag->value.has_value()) return fallback;
  char* end = nullptr;
  const double out = std::strtod(flag->value->c_str(), &end);
  if (end == nullptr || *end != '\0') return fallback;
  return out;
}

bool FlagParser::GetBool(std::string_view name, bool fallback) {
  MarkRecognized(name);
  const Flag* flag = Find(name);
  if (flag == nullptr) return fallback;
  if (!flag->value.has_value()) return true;  // bare switch
  const std::string& v = *flag->value;
  if (v == "1" || v == "true" || v == "yes" || v == "on") return true;
  if (v == "0" || v == "false" || v == "no" || v == "off") return false;
  return fallback;
}

std::vector<std::string> FlagParser::UnknownFlags() const {
  std::vector<std::string> unknown;
  for (const auto& flag : flags_) {
    if (!recognized_.contains(flag.name)) unknown.push_back(flag.name);
  }
  return unknown;
}

}  // namespace memfs
