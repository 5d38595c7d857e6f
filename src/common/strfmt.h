// Allocation-free numeric append for the hot key/codec formatting paths.
// std::to_string materializes a temporary std::string per number; the key
// builders (stripe keys, metadata keys, record codecs) instead format digits
// into a stack buffer and append them to a caller-owned, usually reusable,
// string. Output bytes are identical to the std::to_string spelling.
//
// Also the one JSON string writer the exporters share.
#pragma once

#include <cassert>
#include <charconv>
#include <cstdint>
#include <cstdio>
#include <ostream>
#include <string>
#include <string_view>
#include <system_error>

namespace memfs::strfmt {

inline void AppendUint(std::string& out, std::uint64_t value) {
  char digits[20];  // max uint64 has 20 digits
  const auto result = std::to_chars(digits, digits + sizeof(digits), value);
  assert(result.ec == std::errc());
  out.append(digits, static_cast<std::size_t>(result.ptr - digits));
}

// Writes `text` as a quoted JSON string. Every control character is
// escaped (\n and \t by name, the rest as \u00XX), so no byte is lost.
inline void WriteJsonString(std::ostream& os, std::string_view text) {
  os << '"';
  for (const char c : text) {
    switch (c) {
      case '"': os << "\\\""; break;
      case '\\': os << "\\\\"; break;
      case '\n': os << "\\n"; break;
      case '\t': os << "\\t"; break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buffer[8];
          std::snprintf(buffer, sizeof(buffer), "\\u%04x",
                        static_cast<unsigned>(c));
          os << buffer;
        } else {
          os << c;
        }
    }
  }
  os << '"';
}

}  // namespace memfs::strfmt
