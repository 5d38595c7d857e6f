#include "memfs/metadata.h"

#include <charconv>

#include "common/strfmt.h"
#include "meta/meta.h"

namespace memfs::fs::meta {

Bytes EncodeFile(const FileMeta& meta) {
  std::string text = "F ";
  strfmt::AppendUint(text, meta.size);
  text += meta.sealed ? " 1" : " 0";
  if (meta.epoch != 0) {
    text += ' ';
    strfmt::AppendUint(text, meta.epoch);
  }
  text += '\n';
  return Bytes::Copy(text);
}

Bytes DirHeader() { return Bytes::Copy("D\n"); }

Result<Decoded> Decode(const Bytes& value) {
  if (!value.is_real()) {
    return status::InvalidArgument("metadata must be a real payload");
  }
  const std::string_view text = value.view();
  if (text.empty()) return status::InvalidArgument("empty metadata record");

  Decoded out;
  if (text[0] == 'F') {
    out.kind = Kind::kFile;
    // "F <size> <sealed>\n"
    const auto size_begin = text.find(' ');
    if (size_begin == std::string_view::npos) {
      return status::InvalidArgument("truncated file record");
    }
    const auto size_end = text.find(' ', size_begin + 1);
    if (size_end == std::string_view::npos) {
      return status::InvalidArgument("truncated file record");
    }
    const std::string_view size_str =
        text.substr(size_begin + 1, size_end - size_begin - 1);
    auto [ptr, ec] = std::from_chars(
        size_str.data(), size_str.data() + size_str.size(), out.file.size);
    if (ec != std::errc() || ptr != size_str.data() + size_str.size()) {
      return status::InvalidArgument("bad file size");
    }
    out.file.sealed = size_end + 1 < text.size() && text[size_end + 1] == '1';
    // Optional ring epoch (absent in records written before a scale-out).
    const auto epoch_begin = text.find(' ', size_end + 1);
    if (epoch_begin != std::string_view::npos) {
      const std::string_view epoch_str = text.substr(
          epoch_begin + 1, text.find('\n', epoch_begin) - epoch_begin - 1);
      std::uint32_t epoch = 0;
      auto [eptr, eec] = std::from_chars(
          epoch_str.data(), epoch_str.data() + epoch_str.size(), epoch);
      if (eec == std::errc() &&
          eptr == epoch_str.data() + epoch_str.size()) {
        out.file.epoch = epoch;
      }
    }
    return out;
  }

  if (text[0] == 'D') {
    out.kind = Kind::kDirectory;
    const std::size_t header_end = text.find('\n');
    if (header_end == std::string_view::npos) {
      return status::InvalidArgument("truncated directory record");
    }
    out.entries = ::memfs::meta::FoldDirEvents(text.substr(header_end + 1));
    return out;
  }

  return status::InvalidArgument("unknown metadata record type");
}

}  // namespace memfs::fs::meta
