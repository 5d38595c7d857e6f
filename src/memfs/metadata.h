// Metadata organization (§3.2.4), encoded as plain key-value objects.
//
// File: key = path, value = "F <size> <sealed>\n". Created with an ADD of an
// unsealed record (size 0); sealed by a SET carrying the final size on close.
//
// Directory: key = path, value = "D\n" followed by one event per membership
// change (::memfs::meta::DirEvent, the grammar the sharded index blobs share).
// Events are appended with the storage layer's atomic APPEND, exactly the
// paper's protocol; readers fold the event log into the current listing
// (deletion is a tombstone, never an in-place edit).
#pragma once

#include <string>
#include <vector>

#include "common/bytes.h"
#include "common/status.h"

namespace memfs::fs::meta {

struct FileMeta {
  std::uint64_t size = 0;
  bool sealed = false;
  // Ring epoch under which the file's stripes were placed (elastic
  // scale-out extension): readers use the distributor of this epoch, so
  // growing the server set never requires migrating old files.
  std::uint32_t epoch = 0;
};

Bytes EncodeFile(const FileMeta& meta);
Bytes DirHeader();

enum class Kind { kFile, kDirectory };

struct Decoded {
  Kind kind = Kind::kFile;
  FileMeta file;                      // valid when kind == kFile
  std::vector<std::string> entries;   // valid when kind == kDirectory;
                                      // tombstones applied, sorted
};

// Parses either record form. Fails with INVALID_ARGUMENT on malformed or
// synthetic payloads (metadata is always stored as real bytes).
[[nodiscard]] Result<Decoded> Decode(const Bytes& value);

}  // namespace memfs::fs::meta
