// Metadata records: every on-wire format of both namespaces, and the
// sharded service's token-range math.
//
// The paper's protocol (metadata = append_log, §3.2.4) keys each record by
// its path:
//
//  * File: key = path, value = "F <size> <sealed>[ <epoch>]\n". Created with
//    an ADD of an unsealed record (size 0); sealed by a SET carrying the final
//    size on close. The epoch is absent in records written before a
//    scale-out.
//  * Directory: key = path, value = "D\n" followed by one DirEvent per
//    membership change, appended with the storage layer's atomic APPEND;
//    readers fold the log into the current listing (deletion is a tombstone,
//    never an in-place edit).
//
// That protocol hashes each whole directory to one server, so a hot
// directory is a hot server and a million-entry readdir is one giant APPEND
// blob. The sharded service (metadata = sharded, meta::Client) replaces it
// (GlusterFS-DHT2 style): dentries are separated from inodes and each
// directory's dentries are striped across token ranges.
//
//  * Inode: key = "i/<ino>", value = "I f|d <size> <sealed> <epoch> <nlink>".
//    The inode number — not the path — keys the record and the file's
//    stripes, so its location never moves under rename, and a hard link is
//    nothing but a second dentry pointing at the same ino.
//  * Dentry: key = "d/<parent_ino>/<name>", value = "<ino> f|d". One ADD/GET/
//    DELETE per namespace entry: lookups are O(1) point reads wherever the
//    name hashes, independent of directory size.
//  * Directory index: key = "x/<dir_ino>.<shard>", an append-log of
//    "+name"/"-name" events covering the names whose token falls in shard
//    `shard`'s range. Enumeration reads one bounded blob per token range —
//    never the whole directory — and the index keys themselves hash across
//    the ring, so one hot directory spreads over `dir_shards` servers.
//  * Rename intent: key = "r/<ino>", a journal record making cross-directory
//    rename crash-safe (roll-forward; every step is idempotent).
//
// Both namespaces decode a file or directory into one InodeRecord, so MemFS
// checks kinds, epochs and seals the same way in either mode.
//
// Token ranges: a name's token is a 64-bit hash of "<dir_ino>/<name>"; the
// token space [0, 2^64) is cut into `shards` equal half-open ranges. The
// assignment depends only on (ino, name, shards) — not on the server ring —
// so readdir cursors stay valid across membership epochs while the *blobs*
// rebalance with the ring exactly like data.
#pragma once

#include <cstdint>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "common/bytes.h"
#include "common/status.h"
#include "hash/hash.h"

namespace memfs::meta {

using Ino = std::uint64_t;
inline constexpr Ino kRootIno = 1;

// How MemFS organizes its namespace.
enum class MetadataMode : std::uint8_t {
  // The paper's protocol: path-keyed records, one directory = one append-log
  // on one server (the pre-sharding data path).
  kAppendLog,
  // Token-range-sharded dentry/inode service (this module).
  kSharded,
};

struct MetaConfig {
  // Token ranges (and thus index blobs) per directory. More shards = better
  // hot-directory spread, more GETs per full enumeration.
  std::uint32_t dir_shards = 8;
};

// Entries per ReadDirPage response; bounds the listing material any single
// VFS call returns.
inline constexpr std::uint32_t kReaddirPage = 256;

// Hash assigning name tokens to ranges (independent of the server ring).
// Ranges are equal-width slices of the 64-bit token space, so the hash's
// HIGH bits must be uniform: FNV-1a's high bits are visibly skewed on
// short sequential names (hot-dir skew ~2.6 at 4096 entries), and a
// 32-bit hash (CRC32c) lands every token in shard 0.
inline constexpr hash::HashKind kNameTokenHash = hash::HashKind::kMurmur3_64;

// ---------------------------------------------------------------------------
// Token-range math

// Half-open token range [lo, hi); hi == 0 with lo != 0 never occurs — the
// last range's hi wraps to 0 meaning 2^64.
struct TokenRange {
  std::uint64_t lo = 0;
  std::uint64_t hi = 0;  // exclusive; 0 means "end of the token space"

  friend bool operator==(const TokenRange& a, const TokenRange& b) {
    return a.lo == b.lo && a.hi == b.hi;
  }
};

// Width of each of `shards` equal ranges (rounded up so every token maps to
// a shard < shards).
std::uint64_t RangeWidth(std::uint32_t shards);

// The token range owned by `shard` of `shards`.
TokenRange RangeOfShard(std::uint32_t shard, std::uint32_t shards);

// Which of `shards` ranges holds `token`. Always < shards.
std::uint32_t ShardOfToken(std::uint64_t token, std::uint32_t shards);

// Splits a range at its midpoint into two adjacent halves (membership-style
// range subdivision). Ranges of width 1 cannot split; returns false.
bool SplitRange(const TokenRange& range, TokenRange* left, TokenRange* right);

// Merges two adjacent ranges back into one; false when not adjacent.
bool MergeRanges(const TokenRange& a, const TokenRange& b, TokenRange* out);

// The kNameTokenHash token of `name` within directory `dir` — the hash input
// includes the ino so sibling directories stripe independently.
std::uint64_t NameToken(Ino dir, std::string_view name);

std::uint32_t ShardOfName(Ino dir, std::string_view name,
                          std::uint32_t shards);

// ---------------------------------------------------------------------------
// Keys

std::string InodeKey(Ino ino);                              // "i/<ino>"
std::string DentryKey(Ino parent, std::string_view name);   // "d/<p>/<name>"
std::string IndexKey(Ino dir, std::uint32_t shard);         // "x/<dir>.<s>"
std::string IntentKey(Ino ino);                             // "r/<ino>"

// What a file's stripe keys are built from ("<ident>#<stripe>"): its inode
// key, which no rename or hard link ever changes.
std::string StripeIdent(Ino ino);

// ---------------------------------------------------------------------------
// Inode records

enum class InodeKind : std::uint8_t { kFile, kDirectory };

struct InodeRecord {
  InodeKind kind = InodeKind::kFile;
  std::uint64_t size = 0;
  bool sealed = false;
  // Stripe-placement ring epoch (files; directories keep 0). Immutable under
  // rename — the whole point of keying data by ino.
  std::uint32_t epoch = 0;
  // Dentries referencing this ino. The data is reclaimed when the last one
  // goes.
  std::uint32_t nlink = 1;
};

Bytes EncodeInode(const InodeRecord& rec);
[[nodiscard]] Result<InodeRecord> DecodeInode(const Bytes& value);

// A resolved path: the inode number plus its current record. Ino 0 names a
// path-keyed (append_log) file, whose stripes key on its path.
struct Attr {
  Ino ino = kRootIno;
  InodeRecord rec;
};

// ---------------------------------------------------------------------------
// Dentry records

struct Dentry {
  Ino ino = 0;
  InodeKind kind = InodeKind::kFile;
};

Bytes EncodeDentry(const Dentry& dentry);
[[nodiscard]] Result<Dentry> DecodeDentry(const Bytes& value);

// ---------------------------------------------------------------------------
// Directory event logs

// One event of a directory log: "+name\n" when a child is created, "-name\n"
// when it is removed. Both namespaces list directories this way, behind
// their own one-line header: the paper's directory record ("D\n", below)
// and a sharded index blob ("X\n", below).
Bytes DirEvent(std::string_view name, bool deleted);

// Folds events (the log after its header) into the live names, sorted.
// "+name" is idempotent (a recovery replay or a peer-seeded replica may
// carry an event twice), "-name" tombstones.
std::vector<std::string> FoldDirEvents(std::string_view events);

// A directory index blob (one per token range): the "X\n" header, then the
// events of the names in that range — the same server-side APPEND
// discipline as the paper's directory log, but covering only one token
// range of one directory.
Bytes IndexHeader();

// Folds an index blob into the live names of its range, sorted — the
// deterministic enumeration order paged readdir exposes.
[[nodiscard]] Result<std::vector<std::string>> FoldIndex(const Bytes& value);

// ---------------------------------------------------------------------------
// Path-keyed records (append_log)

// A file record: size, sealed and epoch of `rec` (kind and nlink are not
// stored).
Bytes EncodeFileRecord(const InodeRecord& rec);
Bytes DirRecordHeader();

// Parses either record form; a directory decodes as a sealed kDirectory
// record, and its live names (tombstones applied, sorted) go to `names` when
// it is non-null. Fails with INVALID_ARGUMENT on malformed or synthetic
// payloads (metadata is always stored as real bytes).
[[nodiscard]] Result<InodeRecord> DecodePathRecord(
    const Bytes& value, std::vector<std::string>* names);

// ---------------------------------------------------------------------------
// Rename intents

struct RenameIntent {
  Ino ino = 0;
  InodeKind kind = InodeKind::kFile;
  Ino src_parent = 0;
  Ino dst_parent = 0;
  std::string src_name;
  std::string dst_name;

  friend bool operator==(const RenameIntent& a, const RenameIntent& b) {
    return a.ino == b.ino && a.kind == b.kind &&
           a.src_parent == b.src_parent && a.dst_parent == b.dst_parent &&
           a.src_name == b.src_name && a.dst_name == b.dst_name;
  }
};

Bytes EncodeIntent(const RenameIntent& intent);
[[nodiscard]] Result<RenameIntent> DecodeIntent(const Bytes& value);

}  // namespace memfs::meta
