// Transparent string hashing: unordered containers keyed by std::string
// that use it (with std::equal_to<>) can be searched by std::string_view
// without building a string. It hashes a view exactly as std::hash does a
// string, so bucket placement is the same as with the default hasher.
#pragma once

#include <cstddef>
#include <functional>
#include <string_view>

namespace memfs {

struct StringHash {
  using is_transparent = void;
  std::size_t operator()(std::string_view s) const {
    return std::hash<std::string_view>{}(s);
  }
};

}  // namespace memfs
