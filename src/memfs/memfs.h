// MemFS: the paper's primary contribution (§3).
//
// A fully symmetrical, in-memory runtime file system. Files are cut into
// fixed-size stripes; each stripe is a key-value object whose storage server
// is chosen by a distributed hash function over "<path>#<stripe>". No server
// is special, no data is placed for locality: every node reads and writes
// against all servers at once, turning the full bisection bandwidth of the
// fabric into file-system bandwidth and keeping per-server memory balanced.
//
// The client implements the paper's optimizations:
//  * write buffering — appends accumulate in a per-file buffer; full stripes
//    are shipped asynchronously by a bounded "thread pool" of flushers;
//    close()/flush() drains the buffer before returning (§3.2.2);
//  * sequential prefetching — on a sequential read pattern the next stripes
//    are fetched ahead into a per-file cache (§3.2.2);
//  * write-once semantics — files are written sequentially, once, then
//    sealed; reads are POSIX-style at any offset (§3.2.3);
//  * key-value metadata — file records and directory event logs with atomic
//    append (§3.2.4), giving O(1) lookups distributed over all servers.
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <unordered_map>
#include <vector>

#include "common/bytes.h"
#include "common/metrics.h"
#include "common/status.h"
#include "common/units.h"
#include "hash/distributor.h"
#include "io/replicated_store.h"
#include "kvstore/kv_cluster.h"
#include "kvstore/membership.h"
#include "memfs/fuse.h"
#include "meta/client.h"
#include "meta/meta.h"
#include "memfs/striper.h"
#include "memfs/vfs.h"
#include "sim/future.h"
#include "sim/pool.h"
#include "sim/simulation.h"
#include "sim/sync.h"
#include "sim/task.h"

namespace memfs::fs {

struct MemFsConfig {
  // 512 KB stripes achieve the best write bandwidth (Fig. 3a).
  std::uint64_t stripe_size = units::KiB(512);
  // Per-open-file prefetch cache; the write buffer is the fixed 8 MB
  // kWriteBufferBytes of memfs.cc (§3.2.2).
  std::uint64_t read_cache_bytes = units::MiB(8);
  // Width of the per-node buffering (write) pool (Fig. 3b).
  // io_threads == 0 disables asynchronous flushing (writes ship inline).
  std::uint32_t io_threads = 8;
  // Width of the per-node prefetching (read) pool.
  std::uint32_t read_threads = 8;
  // Stripes fetched ahead on a sequential pattern; 0 disables prefetching.
  std::uint32_t prefetch_depth = 8;
  // Key-to-server mapping (§3.1.2): modulo by default, ketama optional.
  hash::HashKind hash_kind = hash::HashKind::kFnv1a64;
  bool use_ketama = false;
  // Fault-tolerance extension (§3.2.5, the paper's future work): each stripe
  // and metadata record is stored on `replication` consecutive servers of
  // the hash ring. Writes go to all replicas (n x network traffic, 1/n
  // usable capacity — exactly the cost the paper predicts); reads fail over
  // to the next replica when a server is down. 1 = off (the paper's
  // evaluated configuration).
  std::uint32_t replication = 1;
  // Graceful degradation (robustness extension). When true and
  // replication > 1, a mutation succeeds as long as at least one replica
  // acknowledges it (skipped replicas are reinstalled later by read repair),
  // and CREATE/MKDIR fail over to the next replica when the record's home
  // server is unreachable. When false, every replica must acknowledge —
  // strict mode, the behaviour the paper's cost argument assumes.
  bool degraded_writes = true;
  // Namespace organization. `append_log` is the paper's protocol — path-keyed
  // records, one directory = one append-log on one server — the pre-sharding
  // data path. `sharded` routes every namespace operation through the
  // src/meta token-range service (dentry/inode separation, paged readdir,
  // rename and hard links).
  meta::MetadataMode metadata = meta::MetadataMode::kAppendLog;
  // Sharded-mode knobs (token ranges per directory, default page size);
  // ignored under append_log.
  meta::MetaConfig meta;
  // Op-scheduler knobs (src/io): per-(client, server) batching of stripe and
  // metadata RPCs. `io.batching = false` is the one-RPC-per-stripe data
  // path.
  io::IoConfig io;
  FuseConfig fuse;
  // Optional per-operation latency instrumentation (owned by the caller;
  // must outlive the file system). Records vfs.create/open/read/write/
  // flush/close histograms.
  MetricsRegistry* metrics = nullptr;
};

// The replica layer's failure counters (replica_failovers, degraded_writes,
// write_failovers, read_repairs) read alongside the client's own.
struct MemFsStats : io::ReplicaStats {
  std::uint64_t files_created = 0;
  std::uint64_t files_opened = 0;
  std::uint64_t bytes_written = 0;   // application writes
  std::uint64_t bytes_read = 0;      // application reads
  std::uint64_t stripe_sets = 0;
  std::uint64_t stripe_gets = 0;
  std::uint64_t prefetch_issued = 0;
  std::uint64_t cache_hits = 0;
  std::uint64_t cache_misses = 0;
};

class MemFs final : public Vfs {
 public:
  // `storage` is the Memcached-like deployment the FS runs against; clients
  // on every node address all of its servers (the paper's requirement that
  // each FUSE client knows the full server list). `network` provides the
  // node count for the per-node pools and traffic accounting.
  MemFs(sim::Simulation& sim, net::Network& network, kv::KvCluster& storage,
        MemFsConfig config);

  // With a registry configured, Create, Open, Write, Read, Flush and Close
  // each record one vfs.<op> latency sample where the op ends, tagged with
  // its op span; the registry never awaits an op, so it adds no events.
  sim::Future<Result<FileHandle>> Create(VfsContext ctx,
                                         std::string path) override;
  sim::Future<Result<FileHandle>> Open(VfsContext ctx,
                                       std::string path) override;
  sim::Future<Status> Write(VfsContext ctx, FileHandle handle,
                            Bytes data) override;
  sim::Future<Result<Bytes>> Read(VfsContext ctx, FileHandle handle,
                                  std::uint64_t offset,
                                  std::uint64_t length) override;
  sim::Future<Status> Flush(VfsContext ctx, FileHandle handle) override;
  sim::Future<Status> Close(VfsContext ctx, FileHandle handle) override;
  sim::Future<Status> Mkdir(VfsContext ctx, std::string path) override;
  sim::Future<Result<std::vector<FileInfo>>> ReadDir(VfsContext ctx,
                                                     std::string path) override;
  sim::Future<Result<FileInfo>> Stat(VfsContext ctx,
                                     std::string path) override;
  sim::Future<Status> Unlink(VfsContext ctx, std::string path) override;
  sim::Future<Status> Rmdir(VfsContext ctx, std::string path) override;
  sim::Future<Result<DirPage>> ReadDirPage(VfsContext ctx, std::string path,
                                           DirCursor cursor,
                                           std::uint32_t limit) override;
  // Rename and hard links exist only in sharded metadata mode (a dentry is
  // moved or added; the ino-keyed inode and stripes never migrate). Under
  // append_log both fail with PERMISSION — the paper's path-keyed records
  // cannot support them without rewriting data.
  sim::Future<Status> Rename(VfsContext ctx, std::string from,
                             std::string to) override;
  sim::Future<Status> Link(VfsContext ctx, std::string existing,
                           std::string link) override;

  const MemFsConfig& config() const { return config_; }
  const MemFsStats& stats() const { return stats_; }
  const Striper& striper() const { return striper_; }
  // The batching submission layer every storage op goes through.
  const io::OpScheduler& scheduler() const { return replicas_.scheduler(); }
  // Distributor of the current (newest) ring epoch.
  const hash::Distributor& distributor() const {
    return replicas_.distributor();
  }
  FuseLayer& fuse() { return fuse_; }
  // The Simulation this file system's coroutines run on.
  sim::Simulation& simulation() const { return sim_; }

  // Elastic scale-out (the paper's future work, §5): registers server
  // `kv_node` with the storage layer and opens a new ring epoch over the
  // enlarged server set. Files written from now on stripe across all
  // servers; existing files keep the epoch recorded in their metadata, so
  // no data migrates and old reads are unaffected. Returns the new epoch.
  std::uint32_t AddStorageServer(net::NodeId kv_node) {
    return replicas_.AddStorageServer(kv_node);
  }
  std::uint32_t current_epoch() const { return replicas_.current_epoch(); }

  // Elastic membership (the alternative to epoch pinning): routes every
  // placement decision through `membership`'s live ketama ring instead of
  // the frozen per-epoch distributors. While a join/drain transition is
  // open, writes to moving keys are serialized against the migrator's
  // handoff (dual-committed to old and new homes) and reads double-read
  // both rings, so rebalancing is invisible to the application. Requires
  // use_ketama, a matching replication factor, and must be attached before
  // any traffic; do not combine with AddStorageServer. Pass nullptr to
  // detach. The membership must outlive the file system.
  void AttachMembership(kv::Membership* membership) {
    replicas_.AttachMembership(membership);
  }
  kv::Membership* membership() const { return replicas_.membership(); }

  // The sharded metadata service client; nullptr under append_log.
  meta::Client* meta_client() const { return meta_client_.get(); }

 private:
  struct OpenFile {
    std::string path;
    // Stripe-key identity: the path under append_log, "i/<ino>" under
    // sharded metadata (so rename never moves data).
    std::string ident;
    // Preformatted "<ident>#" stripe-key buffer: the prefix is cached for
    // the life of the handle, only the stripe-number suffix is patched per
    // submit/fetch.
    StripeKeyBuf stripe_keys;
    meta::Ino ino = 0;  // sharded mode only
    net::NodeId node = 0;
    bool writing = false;
    std::uint32_t epoch = 0;  // ring epoch governing stripe placement

    // Write state.
    Bytes pending;                 // unshipped buffer tail
    std::uint32_t next_stripe = 0;
    std::uint64_t written = 0;
    Status first_error;
    std::unique_ptr<sim::Semaphore> tokens;   // buffer capacity, in stripes
    std::unique_ptr<sim::WaitGroup> inflight;

    // Read state.
    std::uint64_t size = 0;
    std::unordered_map<std::uint32_t, sim::Future<Result<Bytes>>> cache;
    // Cached stripes in fetch order, oldest first: a FIFO of at most the
    // cache capacity plus one, so a vector (a deque allocates even empty).
    std::vector<std::uint32_t> cache_order;
    std::uint64_t sequential_end = 0;  // end offset of the last read
  };

  [[nodiscard]] Result<OpenFile*> FindHandle(FileHandle handle, bool writing);

  // Installs an open-file entry (pure bookkeeping, no events). A sharded
  // file's stripes key on its `ino`, an append-log file's (ino 0) on its
  // path; `size` applies to read handles.
  FileHandle InstallHandle(std::string path, meta::Ino ino, net::NodeId node,
                           bool writing, std::uint32_t epoch,
                           std::uint64_t size);

  // Ships one stripe asynchronously (or inline when io_threads == 0),
  // respecting buffer capacity and pool width. Awaited by the writer, so
  // backpressure blocks the application exactly when the 8 MB buffer is full.
  sim::Task SubmitStripe(OpenFile* file, std::uint32_t index, Bytes data,
                         sim::VoidPromise accepted, trace::TraceContext trace);
  sim::Task FlushStripe(OpenFile* file, std::string key, Bytes data,
                        trace::TraceContext trace);

  // Returns the cached or newly fetched stripe future; starts a fetch when
  // absent.
  [[nodiscard]] sim::Future<Result<Bytes>> EnsureStripe(OpenFile* file, std::uint32_t index,
                                          bool prefetch,
                                          trace::TraceContext trace);
  sim::Future<Result<Bytes>> FetchStripe(net::NodeId node, std::uint32_t epoch,
                                         std::string key,
                                         trace::TraceContext trace);

  // Reclaims every stripe of a dead file (awaited by the unlink).
  sim::VoidFuture ReclaimStripes(net::NodeId node, std::string ident,
                                 std::uint32_t epoch, std::uint64_t size,
                                 trace::TraceContext trace);

  sim::Simulation& sim_;
  MemFsConfig config_;
  Striper striper_;
  FuseLayer fuse_;
  // Placement, replica chains and the op scheduler: every stripe and
  // metadata record goes through it.
  io::ReplicatedStore replicas_;
  // Sharded metadata service (metadata == kSharded); null under append_log.
  std::unique_ptr<meta::Client> meta_client_;

  // Per-node buffering and prefetching pools (§3.2.2).
  sim::PoolGroup write_pool_;
  sim::PoolGroup read_pool_;

  std::unordered_map<FileHandle, std::unique_ptr<OpenFile>> handles_;
  FileHandle next_handle_ = 1;
  MemFsStats stats_;

  // Per-client-node monitor gauges (empty without a registry): open handles
  // and unshipped write-buffer bytes, sampled by src/monitor.
  std::vector<std::int64_t*> open_files_gauges_;  // fs.open_files/<node>
  std::vector<std::int64_t*> dirty_gauges_;       // fs.dirty_bytes/<node>

  std::int64_t* OpenFilesGauge(net::NodeId node) const {
    return node < open_files_gauges_.size() ? open_files_gauges_[node]
                                            : nullptr;
  }
  std::int64_t* DirtyGauge(net::NodeId node) const {
    return node < dirty_gauges_.size() ? dirty_gauges_[node] : nullptr;
  }
};

}  // namespace memfs::fs
