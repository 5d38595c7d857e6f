// AMFS: the locality-based baseline file system (§2, §4).
//
// Reconstructed from the paper's description of AMFS/AMFS Shell:
//  * writes are local-only — a file lives, whole, in its writer's memory;
//  * reads are local when the scheduler achieved locality; otherwise the
//    file is fetched from its owner over a chunked request/response protocol
//    and *replicated* into the reader's memory (replication-on-read);
//  * N-1 access is served by a software multicast (binomial tree) followed
//    by local reads — the benchmarking pattern of the AMFS paper;
//  * metadata is distributed over the nodes by a hash of the file name that
//    is *not uniform* (the AMFS paper says so; it is why AMFS create does
//    not scale linearly in Fig. 6), and metadata queries for files present
//    locally are answered locally (why AMFS open is fast);
//  * files must fit in a node's memory; when replication or aggregation
//    exceeds it, operations fail with NO_SPACE — the effect that prevents
//    AMFS from running the 12x12 Montage workflow.
//
// AMFS implements the same Vfs interface as MemFS, so every benchmark and
// workflow runs against both.
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <string_view>
#include <unordered_map>
#include <vector>

#include "common/bytes.h"
#include "common/status.h"
#include "common/string_hash.h"
#include "common/units.h"
#include "kvstore/kv_server.h"
#include "memfs/fuse.h"
#include "memfs/vfs.h"
#include "net/network.h"
#include "sim/future.h"
#include "sim/pool.h"
#include "sim/simulation.h"
#include "sim/task.h"

namespace memfs::amfs {

struct AmfsConfig {
  // Local-path service costs (FUSE + memory file system implementation).
  sim::SimTime op_base = units::Micros(8);
  double write_ns_per_byte = 3.3;   // ~300 MB/s local write path
  double read_ns_per_byte = 1.25;   // ~800 MB/s local read path
  // Remote fetch: sequential chunked request/response per file (the ~4-7x
  // penalty of Table 1's "1-1 read (remote)" row).
  std::uint64_t fetch_chunk_bytes = units::KiB(16);
  // Metadata RPC service time at the record's home node, and the width of
  // each node's metadata service (concurrent requests it can process). A
  // bounded service is what turns the skewed placement into the sublinear
  // create scaling of Fig. 6: hot shards queue.
  sim::SimTime metadata_base = units::Micros(6);
  std::uint32_t metadata_workers = 4;
  // Directory-record mutations serialize on the record (AMFS updates parent
  // listings in place under a lock, unlike MemFS's server-side atomic
  // append); this is what bends AMFS's create curve in Fig. 6.
  sim::SimTime metadata_dir_update = units::Micros(15);
  // Cost of answering a metadata query from local tables (FUSE lookup +
  // local metadata structures), the fast path behind AMFS's open numbers.
  sim::SimTime metadata_local = units::Micros(30);
  // Per-node storage budget (node memory minus the application reservation).
  std::uint64_t node_memory_limit = units::GiB(20);
  fs::FuseConfig fuse;
};

class Amfs final : public fs::Vfs {
 public:
  Amfs(sim::Simulation& sim, net::Network& network, AmfsConfig config);

  sim::Future<Result<fs::FileHandle>> Create(fs::VfsContext ctx,
                                             std::string path) override;
  sim::Future<Result<fs::FileHandle>> Open(fs::VfsContext ctx,
                                           std::string path) override;
  sim::Future<Status> Write(fs::VfsContext ctx, fs::FileHandle handle,
                            Bytes data) override;
  sim::Future<Result<Bytes>> Read(fs::VfsContext ctx, fs::FileHandle handle,
                                  std::uint64_t offset,
                                  std::uint64_t length) override;
  sim::Future<Status> Flush(fs::VfsContext ctx,
                            fs::FileHandle handle) override;
  sim::Future<Status> Close(fs::VfsContext ctx, fs::FileHandle handle) override;
  sim::Future<Status> Mkdir(fs::VfsContext ctx, std::string path) override;
  sim::Future<Result<std::vector<fs::FileInfo>>> ReadDir(
      fs::VfsContext ctx, std::string path) override;
  sim::Future<Result<fs::FileInfo>> Stat(fs::VfsContext ctx,
                                         std::string path) override;
  sim::Future<Status> Unlink(fs::VfsContext ctx, std::string path) override;
  sim::Future<Status> Rmdir(fs::VfsContext ctx, std::string path) override;
  // Sorted pages out of the home shard's listing; the response transfer
  // carries only the page. Cursors use shard 0 (AMFS keeps one record per
  // directory).
  sim::Future<Result<fs::DirPage>> ReadDirPage(fs::VfsContext ctx,
                                               std::string path,
                                               fs::DirCursor cursor,
                                               std::uint32_t limit) override;
  // Files only (a whole-file move between metadata homes plus a local
  // re-key of every replica); directory renames fail with PERMISSION.
  sim::Future<Status> Rename(fs::VfsContext ctx, std::string from,
                             std::string to) override;
  // AMFS records are path-keyed: hard links are unsupported (PERMISSION).
  sim::Future<Status> Link(fs::VfsContext ctx, std::string existing,
                           std::string link) override;

  // --- AMFS-specific surface used by the AMFS Shell scheduler and benches --

  // Pushes `path` from its owner to every node (binomial-tree software
  // multicast). Completes when all replicas are stored.
  sim::Future<Status> Multicast(fs::VfsContext ctx, std::string path);

  // Scheduler oracle: where does `path` currently live? (The AMFS Shell
  // keeps this mapping itself; zero simulated cost.) Returns the owner, or
  // the config node count if unknown.
  net::NodeId OwnerHint(std::string_view path) const;
  bool HasReplica(net::NodeId node, const std::string& path) const;

  // Per-node stored bytes (Table 3 / Fig. 9 accounting).
  std::uint64_t node_memory_used(net::NodeId node) const;
  std::uint64_t total_memory_used() const;

  const AmfsConfig& config() const { return config_; }
  fs::FuseLayer& fuse() { return fuse_; }
  // The Simulation this file system's coroutines run on.
  sim::Simulation& simulation() const { return sim_; }

 private:
  struct MetaRecord {
    net::NodeId owner = 0;
    std::uint64_t size = 0;
    bool sealed = false;
    bool is_directory = false;
    std::vector<std::string> entries;  // directories only
  };

  struct OpenFile {
    std::string path;
    net::NodeId node = 0;
    bool writing = false;
    Bytes buffer;       // write accumulation (local file under construction)
    std::uint64_t size = 0;  // read mode
  };

  // Metadata home node for `path`: the byte sum of its characters modulo the
  // node count.
  net::NodeId MetaServerFor(std::string_view path) const;

  // One unit of service at `home`'s metadata shard: waits for a worker slot
  // and pays the service time. Hot shards queue here.
  sim::VoidFuture MetaService(net::NodeId home);

  // Directory-record mutation at `home`: exclusive per-shard lock.
  sim::VoidFuture DirUpdateService(net::NodeId home);

  // One metadata round trip unless the answer is local.
  [[nodiscard]] sim::Future<Result<MetaRecord>> QueryMeta(fs::VfsContext ctx,
                                                          std::string path);

  // Chunked sequential remote fetch + replica store.
  [[nodiscard]] sim::Future<Status> FetchAndReplicate(net::NodeId from,
                                                      net::NodeId to,
                                                      std::string path);

  Result<MetaRecord*> FindMeta(const std::string& path);

  sim::Simulation& sim_;
  net::Network& network_;
  AmfsConfig config_;
  fs::FuseLayer fuse_;

  // Local whole-file stores, one per node (KvServer provides the memory
  // accounting and capacity enforcement).
  std::vector<std::unique_ptr<kv::KvServer>> stores_;

  // Distributed metadata: metadata_[n] holds the records homed on node n.
  // The scheduler-visible owner map is global (the AMFS Shell tracks it).
  // StringHash lets OwnerHint look paths up by string_view.
  std::vector<
      std::unordered_map<std::string, MetaRecord, StringHash, std::equal_to<>>>
      metadata_;
  sim::PoolGroup meta_workers_;
  sim::PoolGroup dir_locks_;

  std::unordered_map<fs::FileHandle, std::unique_ptr<OpenFile>> handles_;
  fs::FileHandle next_handle_ = 1;
};

}  // namespace memfs::amfs
