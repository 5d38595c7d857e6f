// POSIX-style virtual file system interface.
//
// Both file systems in this reproduction — MemFS (striped, locality-agnostic)
// and AMFS (local writes, locality-based) — implement this interface, so the
// MTC workflow runner and the MTC-Envelope benchmarks drive either one
// unchanged. The interface mirrors what the paper's applications use through
// FUSE: create/open/read/write/close plus directory and metadata operations.
//
// Semantics: "write-once, read-many" (§3.2.3). A file is created, written
// strictly sequentially by one writer, and sealed by Close; afterwards it can
// be opened and read any number of times, at any offsets. Reopening a sealed
// file for writing fails with PERMISSION.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "common/bytes.h"
#include "common/status.h"
#include "net/network.h"
#include "sim/future.h"
#include "trace/trace.h"

namespace memfs::fs {

using FileHandle = std::uint64_t;

// Identifies the caller: which node it runs on and which process slot it is
// (the process index selects the FUSE mountpoint under the multi-mount
// deployment of Fig. 10b).
struct VfsContext {
  VfsContext() = default;
  VfsContext(net::NodeId node_id, std::uint32_t process_id,
             trace::TraceContext span = {})
      : node(node_id), process(process_id), trace(span) {}

  net::NodeId node = 0;
  std::uint32_t process = 0;
  // Active trace span of the calling operation; inactive (null tracer) by
  // default. Contexts are values — this is how a workflow task's span
  // propagates into the file system without thread-local state.
  trace::TraceContext trace;
};

struct FileInfo {
  std::string name;
  std::uint64_t size = 0;
  bool is_directory = false;
  bool sealed = true;  // files only; false while still open for writing
};

// Paged directory enumeration. A cursor names a metadata token-range shard
// and the number of entries already consumed within it; `{0, 0}` starts a
// listing. Cursors stay valid across membership epochs — shard assignment
// depends only on the directory, never on the server ring.
struct DirCursor {
  std::uint32_t shard = 0;
  std::uint64_t offset = 0;
};

struct DirPage {
  std::vector<FileInfo> entries;  // sorted by name within each shard
  DirCursor next;                 // pass back to continue the listing
  bool more = false;              // false when the listing is exhausted
};

class Vfs {
 public:
  virtual ~Vfs() = default;

  // Creates `path` and opens it for (sequential) writing.
  [[nodiscard]] virtual sim::Future<Result<FileHandle>> Create(VfsContext ctx,
                                                 std::string path) = 0;

  // Opens an existing, sealed file for reading.
  [[nodiscard]] virtual sim::Future<Result<FileHandle>> Open(VfsContext ctx,
                                               std::string path) = 0;

  // Appends `data` at the current write position. Only valid on handles
  // returned by Create; enforced sequential.
  [[nodiscard]] virtual sim::Future<Status> Write(VfsContext ctx, FileHandle handle,
                                    Bytes data) = 0;

  // Reads up to `length` bytes at `offset` (any offset; short reads at EOF).
  [[nodiscard]] virtual sim::Future<Result<Bytes>> Read(VfsContext ctx, FileHandle handle,
                                          std::uint64_t offset,
                                          std::uint64_t length) = 0;

  // For write handles: waits until all in-flight buffered stripes have
  // reached the servers, without sealing — the paper's flush() (§3.2.2:
  // "whenever an application calls close(), or flush(), our file system
  // waits until the write buffer has been emptied"). A sub-stripe tail stays
  // buffered (only close may emit the short final stripe). The handle
  // remains writable. No-op on read handles.
  [[nodiscard]] virtual sim::Future<Status> Flush(VfsContext ctx, FileHandle handle) = 0;

  // For write handles: drains buffered data and seals the file (flush +
  // close in the paper's protocol). For read handles: releases state.
  [[nodiscard]] virtual sim::Future<Status> Close(VfsContext ctx, FileHandle handle) = 0;

  [[nodiscard]] virtual sim::Future<Status> Mkdir(VfsContext ctx, std::string path) = 0;

  [[nodiscard]] virtual sim::Future<Result<std::vector<FileInfo>>> ReadDir(
      VfsContext ctx, std::string path) = 0;

  // One bounded page of a directory listing starting at `cursor`
  // (`limit == 0` uses the implementation's default page size). Never
  // materializes the whole directory in a single RPC.
  [[nodiscard]] virtual sim::Future<Result<DirPage>> ReadDirPage(
      VfsContext ctx, std::string path, DirCursor cursor,
      std::uint32_t limit) = 0;

  [[nodiscard]] virtual sim::Future<Result<FileInfo>> Stat(VfsContext ctx,
                                             std::string path) = 0;

  [[nodiscard]] virtual sim::Future<Status> Unlink(VfsContext ctx, std::string path) = 0;

  // Removes an empty directory (NOT_EMPTY otherwise; the root is
  // irremovable).
  [[nodiscard]] virtual sim::Future<Status> Rmdir(VfsContext ctx, std::string path) = 0;

  // Moves `from` to `to` (which must not exist). Sealed files and
  // directories; implementations without a dentry/inode split may reject
  // directory renames or the operation entirely with PERMISSION.
  [[nodiscard]] virtual sim::Future<Status> Rename(VfsContext ctx,
                                                   std::string from,
                                                   std::string to) = 0;

  // Hard link: `link` becomes a second name for the sealed file `existing`.
  // PERMISSION on implementations whose records are path-keyed.
  [[nodiscard]] virtual sim::Future<Status> Link(VfsContext ctx,
                                                 std::string existing,
                                                 std::string link) = 0;
};

}  // namespace memfs::fs
