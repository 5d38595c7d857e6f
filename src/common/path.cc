#include "common/path.h"

#include <string_view>

namespace memfs::path {

std::string Parent(const std::string& p) {
  const auto pos = p.find_last_of('/');
  if (pos == std::string::npos || pos == 0) return "/";
  return p.substr(0, pos);
}

std::string Basename(const std::string& p) {
  const auto pos = p.find_last_of('/');
  if (pos == std::string::npos) return p;
  return p.substr(pos + 1);
}

bool IsNormalized(const std::string& p) {
  if (p.empty() || p[0] != '/') return false;
  if (p == "/") return true;
  if (p.back() == '/') return false;
  std::size_t start = 1;
  while (start <= p.size()) {
    const auto end = p.find('/', start);
    const std::string_view component =
        std::string_view(p).substr(start, end == std::string::npos
                                              ? std::string::npos
                                              : end - start);
    if (component.empty() || component == "." || component == "..") {
      return false;
    }
    if (end == std::string::npos) break;
    start = end + 1;
  }
  return true;
}

}  // namespace memfs::path
