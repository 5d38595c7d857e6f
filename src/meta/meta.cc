#include "meta/meta.h"

#include <algorithm>
#include <charconv>
#include <limits>
#include <set>

#include "common/strfmt.h"

namespace memfs::meta {

// ---------------------------------------------------------------------------
// Token-range math

std::uint64_t RangeWidth(std::uint32_t shards) {
  if (shards <= 1) return 0;  // 0 stands for the full 2^64 span
  // Ceiling division of 2^64 by `shards` without overflowing: every token,
  // including the all-ones one, must land in a shard < shards.
  return std::numeric_limits<std::uint64_t>::max() / shards + 1;
}

TokenRange RangeOfShard(std::uint32_t shard, std::uint32_t shards) {
  TokenRange range;
  if (shards <= 1) return range;  // [0, wrap): the whole space
  const std::uint64_t width = RangeWidth(shards);
  range.lo = width * shard;
  range.hi = shard + 1 == shards ? 0 : width * (shard + 1);
  return range;
}

std::uint32_t ShardOfToken(std::uint64_t token, std::uint32_t shards) {
  if (shards <= 1) return 0;
  return static_cast<std::uint32_t>(token / RangeWidth(shards));
}

bool SplitRange(const TokenRange& range, TokenRange* left, TokenRange* right) {
  const std::uint64_t lo = range.lo;
  const std::uint64_t hi = range.hi;  // 0 == 2^64
  // Midpoint of [lo, hi) in wrap-aware arithmetic: lo + span/2.
  const std::uint64_t span = hi - lo;  // wraps correctly when hi == 0
  if (span == 1) return false;         // single-token range
  const std::uint64_t mid = lo + (span == 0
                                      ? (std::uint64_t{1} << 63)
                                      : span / 2);
  if (mid == lo || mid == hi) return false;
  left->lo = lo;
  left->hi = mid;
  right->lo = mid;
  right->hi = hi;
  return true;
}

bool MergeRanges(const TokenRange& a, const TokenRange& b, TokenRange* out) {
  if (a.hi == b.lo && a.hi != 0) {
    out->lo = a.lo;
    out->hi = b.hi;
    return true;
  }
  if (b.hi == a.lo && b.hi != 0) {
    out->lo = b.lo;
    out->hi = a.hi;
    return true;
  }
  return false;
}

std::uint64_t NameToken(Ino dir, std::string_view name) {
  std::string input;
  input.reserve(21 + name.size());
  strfmt::AppendUint(input, dir);
  input.push_back('/');
  input.append(name);
  return hash::HashKey(kNameTokenHash, input);
}

std::uint32_t ShardOfName(Ino dir, std::string_view name,
                          std::uint32_t shards) {
  return ShardOfToken(NameToken(dir, name), shards);
}

// ---------------------------------------------------------------------------
// Keys

std::string InodeKey(Ino ino) {
  std::string key = "i/";
  strfmt::AppendUint(key, ino);
  return key;
}

std::string DentryKey(Ino parent, std::string_view name) {
  std::string key;
  key.reserve(23 + name.size());
  key.append("d/");
  strfmt::AppendUint(key, parent);
  key.push_back('/');
  key.append(name);
  return key;
}

std::string IndexKey(Ino dir, std::uint32_t shard) {
  std::string key = "x/";
  strfmt::AppendUint(key, dir);
  key.push_back('.');
  strfmt::AppendUint(key, shard);
  return key;
}

std::string IntentKey(Ino ino) {
  std::string key = "r/";
  strfmt::AppendUint(key, ino);
  return key;
}

std::string StripeIdent(Ino ino) { return InodeKey(ino); }

// ---------------------------------------------------------------------------
// Codecs

namespace {

// Parses an unsigned field terminated by ` ` or `\n`, advancing `pos` past
// the terminator. Returns false on malformed input.
template <typename UInt>
bool ParseField(std::string_view text, std::size_t& pos, UInt& out) {
  std::size_t end = pos;
  while (end < text.size() && text[end] != ' ' && text[end] != '\n') ++end;
  const std::string_view field = text.substr(pos, end - pos);
  auto [ptr, ec] =
      std::from_chars(field.data(), field.data() + field.size(), out);
  if (ec != std::errc() || ptr != field.data() + field.size()) return false;
  pos = end < text.size() ? end + 1 : end;
  return true;
}

// Reads a `\n`-terminated line starting at `pos`, advancing past it.
bool ParseLine(std::string_view text, std::size_t& pos, std::string& out) {
  if (pos >= text.size()) return false;
  const auto end = text.find('\n', pos);
  if (end == std::string_view::npos) return false;
  out.assign(text.substr(pos, end - pos));
  pos = end + 1;
  return true;
}

}  // namespace

Bytes EncodeInode(const InodeRecord& rec) {
  std::string text = "I ";
  text.push_back(rec.kind == InodeKind::kDirectory ? 'd' : 'f');
  text.push_back(' ');
  strfmt::AppendUint(text, rec.size);
  text += rec.sealed ? " 1 " : " 0 ";
  strfmt::AppendUint(text, rec.epoch);
  text.push_back(' ');
  strfmt::AppendUint(text, rec.nlink);
  text.push_back('\n');
  return Bytes::Copy(text);
}

Result<InodeRecord> DecodeInode(const Bytes& value) {
  if (!value.is_real()) {
    return status::InvalidArgument("inode record must be a real payload");
  }
  const std::string_view text = value.view();
  if (text.size() < 4 || text[0] != 'I' || text[1] != ' ') {
    return status::InvalidArgument("not an inode record");
  }
  InodeRecord rec;
  rec.kind = text[2] == 'd' ? InodeKind::kDirectory : InodeKind::kFile;
  std::size_t pos = 4;
  std::uint32_t sealed = 0;
  if (!ParseField(text, pos, rec.size) || !ParseField(text, pos, sealed) ||
      !ParseField(text, pos, rec.epoch) || !ParseField(text, pos, rec.nlink)) {
    return status::InvalidArgument("truncated inode record");
  }
  rec.sealed = sealed != 0;
  return rec;
}

Bytes EncodeDentry(const Dentry& dentry) {
  std::string text;
  text.reserve(24);
  strfmt::AppendUint(text, dentry.ino);
  text.push_back(' ');
  text.push_back(dentry.kind == InodeKind::kDirectory ? 'd' : 'f');
  text.push_back('\n');
  return Bytes::Copy(text);
}

Result<Dentry> DecodeDentry(const Bytes& value) {
  if (!value.is_real()) {
    return status::InvalidArgument("dentry must be a real payload");
  }
  const std::string_view text = value.view();
  Dentry dentry;
  std::size_t pos = 0;
  if (!ParseField(text, pos, dentry.ino) || pos >= text.size()) {
    return status::InvalidArgument("truncated dentry");
  }
  dentry.kind =
      text[pos] == 'd' ? InodeKind::kDirectory : InodeKind::kFile;
  return dentry;
}

Bytes DirEvent(std::string_view name, bool deleted) {
  std::string text;
  text.reserve(name.size() + 2);
  text.push_back(deleted ? '-' : '+');
  text.append(name);
  text.push_back('\n');
  return Bytes::Copy(text);
}

std::vector<std::string> FoldDirEvents(std::string_view events) {
  std::set<std::string, std::less<>> live;
  std::size_t pos = 0;
  while (pos < events.size()) {
    auto end = events.find('\n', pos);
    if (end == std::string_view::npos) end = events.size();
    const std::string_view line = events.substr(pos, end - pos);
    pos = end + 1;
    if (line.size() < 2) continue;
    if (line[0] == '+') {
      live.emplace(line.substr(1));
    } else if (line[0] == '-') {
      if (auto it = live.find(line.substr(1)); it != live.end()) {
        live.erase(it);
      }
    }
  }
  return {live.begin(), live.end()};
}

Bytes IndexHeader() { return Bytes::Copy("X\n"); }

Result<std::vector<std::string>> FoldIndex(const Bytes& value) {
  if (!value.is_real()) {
    return status::InvalidArgument("index blob must be a real payload");
  }
  const std::string_view text = value.view();
  if (text.size() < 2 || text[0] != 'X' || text[1] != '\n') {
    return status::InvalidArgument("not a directory index blob");
  }
  return FoldDirEvents(text.substr(2));
}

Bytes EncodeFileRecord(const InodeRecord& rec) {
  std::string text = "F ";
  strfmt::AppendUint(text, rec.size);
  text += rec.sealed ? " 1" : " 0";
  if (rec.epoch != 0) {
    text.push_back(' ');
    strfmt::AppendUint(text, rec.epoch);
  }
  text.push_back('\n');
  return Bytes::Copy(text);
}

Bytes DirRecordHeader() { return Bytes::Copy("D\n"); }

Result<InodeRecord> DecodePathRecord(const Bytes& value,
                                     std::vector<std::string>* names) {
  if (!value.is_real()) {
    return status::InvalidArgument("metadata must be a real payload");
  }
  const std::string_view text = value.view();
  if (text.empty()) return status::InvalidArgument("empty metadata record");
  InodeRecord rec;
  if (text[0] == 'F') {
    // "F <size> <sealed>[ <epoch>]\n"
    std::size_t pos = 2;
    if (text.size() < 2 || text[1] != ' ' ||
        !ParseField(text, pos, rec.size) || pos >= text.size()) {
      return status::InvalidArgument("truncated file record");
    }
    rec.sealed = text[pos] == '1';
    // An unparsable epoch reads as 0, like a record without one.
    pos = text.find(' ', pos);
    std::uint32_t epoch = 0;
    if (pos != std::string_view::npos && ParseField(text, ++pos, epoch)) {
      rec.epoch = epoch;
    }
    return rec;
  }
  if (text[0] == 'D') {
    const std::size_t header_end = text.find('\n');
    if (header_end == std::string_view::npos) {
      return status::InvalidArgument("truncated directory record");
    }
    rec.kind = InodeKind::kDirectory;
    rec.sealed = true;
    if (names != nullptr) *names = FoldDirEvents(text.substr(header_end + 1));
    return rec;
  }
  return status::InvalidArgument("unknown metadata record type");
}

Bytes EncodeIntent(const RenameIntent& intent) {
  std::string text = "R ";
  strfmt::AppendUint(text, intent.ino);
  text.push_back(' ');
  text.push_back(intent.kind == InodeKind::kDirectory ? 'd' : 'f');
  text.push_back(' ');
  strfmt::AppendUint(text, intent.src_parent);
  text.push_back(' ');
  strfmt::AppendUint(text, intent.dst_parent);
  text.push_back('\n');
  text += intent.src_name;
  text.push_back('\n');
  text += intent.dst_name;
  text.push_back('\n');
  return Bytes::Copy(text);
}

Result<RenameIntent> DecodeIntent(const Bytes& value) {
  if (!value.is_real()) {
    return status::InvalidArgument("intent must be a real payload");
  }
  const std::string_view text = value.view();
  if (text.size() < 4 || text[0] != 'R' || text[1] != ' ') {
    return status::InvalidArgument("not a rename intent");
  }
  RenameIntent intent;
  std::size_t pos = 2;
  if (!ParseField(text, pos, intent.ino) || pos >= text.size()) {
    return status::InvalidArgument("truncated rename intent");
  }
  intent.kind =
      text[pos] == 'd' ? InodeKind::kDirectory : InodeKind::kFile;
  pos += 2;  // kind char + separator
  if (!ParseField(text, pos, intent.src_parent) ||
      !ParseField(text, pos, intent.dst_parent) ||
      !ParseLine(text, pos, intent.src_name) ||
      !ParseLine(text, pos, intent.dst_name)) {
    return status::InvalidArgument("truncated rename intent");
  }
  return intent;
}

}  // namespace memfs::meta
