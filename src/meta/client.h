// The metadata service client: every MemFS namespace operation in
// `metadata = sharded` mode becomes a short transaction of single-key
// operations issued through this class.
//
// The records live on the replica layer MemFS stores its stripes on
// (io::ReplicatedStore: batched MULTI_* lanes, replica chains, failover
// reads), always at the metadata ring epoch. All protocol knowledge — key
// layout, operation ordering, crash recovery — lives here.
//
// Crash-safety orderings (servers crash; the client survives):
//  * create/mkdir: inode SET before dentry ADD — a torn create leaves an
//    unreferenced inode (leak, reclaimed by rollback), never a dentry
//    pointing at nothing;
//  * unlink/rmdir: dentry DELETE before inode release — same invariant from
//    the other side;
//  * rename: an intent journal record ("r/<ino>") is written first, then the
//    two-dentry commit (add destination, index both directories, delete
//    source, delete intent). Every step is idempotent — the index fold
//    dedups "+name", tombstones re-apply, ADD/DELETE tolerate replays — so
//    recovery simply rolls the journal forward;
//  * link: nlink is bumped before the new dentry lands — a torn link
//    overstates nlink (leaks the inode at worst), never understates it
//    (which would free data a live dentry still references).
#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "common/bytes.h"
#include "common/metrics.h"
#include "common/status.h"
#include "io/replicated_store.h"
#include "meta/meta.h"
#include "net/network.h"
#include "sim/future.h"
#include "sim/simulation.h"
#include "trace/trace.h"

namespace memfs::meta {

// One bounded page of a directory enumeration. The cursor (shard, offset)
// names a token range and the entries already consumed within it; it stays
// valid across membership epochs because shard assignment never depends on
// the server ring.
struct DirPageResult {
  std::vector<std::string> names;
  std::uint32_t next_shard = 0;
  std::uint64_t next_offset = 0;
  bool more = false;
};

// What Unlink removed. When the last link drops, the caller owns reclaiming
// the data stripes keyed by the returned ino/record.
struct UnlinkOutcome {
  bool removed_inode = false;
  Ino ino = 0;
  InodeRecord rec;
};

struct ClientStats {
  std::uint64_t lookups = 0;        // dentry point reads
  std::uint64_t dentry_adds = 0;
  std::uint64_t dentry_removes = 0;
  std::uint64_t readdir_pages = 0;
  std::uint64_t renames = 0;
  std::uint64_t links = 0;
  std::uint64_t recovered_renames = 0;  // intents completed by recovery
};

class Client {
 public:
  // Seeds the root inode into `store` (deployment time, no simulated
  // traffic). `metrics` (optional) receives per-shard dentry gauges
  // "meta.dentries/<shard>" — the series the symmetry auditor watches to
  // prove a hot directory spreads over all token ranges.
  Client(io::ReplicatedStore& store, MetaConfig config,
         MetricsRegistry* metrics);

  // Walks `path` from the root, one dentry point-read per component.
  [[nodiscard]] sim::Future<Result<Attr>> Resolve(net::NodeId node,
                                                  std::string path,
                                                  trace::TraceContext trace);

  // Registers an unsealed file under `path`; EXISTS loses deterministically
  // (write-once implies a single writer). `epoch` is the stripe-placement
  // ring epoch recorded in the inode.
  [[nodiscard]] sim::Future<Result<Attr>> CreateFile(net::NodeId node,
                                                     std::string path,
                                                     std::uint32_t epoch,
                                                     trace::TraceContext trace);

  // Seals `ino` with its final size (close).
  [[nodiscard]] sim::Future<Status> SealFile(net::NodeId node, Ino ino,
                                             std::uint64_t size,
                                             std::uint32_t epoch,
                                             trace::TraceContext trace);

  [[nodiscard]] sim::Future<Status> Mkdir(net::NodeId node, std::string path,
                                          trace::TraceContext trace);

  // One page of directory `dir`, starting at (shard, offset). Reads exactly
  // the index blobs it touches — never the whole directory.
  [[nodiscard]] sim::Future<Result<DirPageResult>> ReadDirPage(
      net::NodeId node, Ino dir, std::uint32_t shard, std::uint64_t offset,
      std::uint32_t limit, trace::TraceContext trace);

  [[nodiscard]] sim::Future<Result<UnlinkOutcome>> Unlink(
      net::NodeId node, std::string path, trace::TraceContext trace);

  [[nodiscard]] sim::Future<Status> Rmdir(net::NodeId node, std::string path,
                                          trace::TraceContext trace);

  // Crash-safe two-dentry commit; moves a dentry, never the inode. Renaming
  // a directory is a constant-cost dentry move for the same reason.
  [[nodiscard]] sim::Future<Status> Rename(net::NodeId node, std::string from,
                                           std::string to,
                                           trace::TraceContext trace);

  // Hard link: a second dentry for an existing sealed file.
  [[nodiscard]] sim::Future<Status> Link(net::NodeId node,
                                         std::string existing,
                                         std::string link,
                                         trace::TraceContext trace);

  // Rolls every pending rename intent forward (after faults heal). Returns
  // the number completed; intents whose servers are still unreachable stay
  // pending for the next call.
  [[nodiscard]] sim::Future<Result<std::uint32_t>> RecoverPending(
      net::NodeId node, trace::TraceContext trace);

  const MetaConfig& config() const { return config_; }
  const ClientStats& stats() const { return stats_; }
  // The Simulation this client's coroutines run on.
  sim::Simulation& simulation() const { return store_.simulation(); }
  std::uint32_t pending_intents() const {
    return static_cast<std::uint32_t>(pending_.size());
  }

  // Deployment-time bulk namespace seeding (before any simulated traffic —
  // the mdtest-scale bench setup). Creates directory `dir` (a direct child
  // of the root) holding `count` sealed zero-length files "<prefix><i>",
  // written straight into the servers like the root bootstrap.
  void BulkLoadDirectory(const std::string& dir, const std::string& prefix,
                         std::uint64_t count);

 private:
  struct PendingIntent {
    RenameIntent intent;
    bool counted = false;  // shard gauges already adjusted for this rename
  };

  std::int64_t* ShardGauge(std::uint32_t shard) const {
    return shard < shard_gauges_.size() ? shard_gauges_[shard] : nullptr;
  }

  // Point read of one dentry.
  [[nodiscard]] sim::Future<Result<Dentry>> Lookup(net::NodeId node,
                                                   Ino parent,
                                                   std::string name,
                                                   trace::TraceContext trace);

  // Resolves `path` to a directory ino (NOT_DIRECTORY on a file).
  [[nodiscard]] sim::Future<Result<Ino>> ResolveDir(net::NodeId node,
                                                    std::string path,
                                                    trace::TraceContext trace);

  // Appends one event to the right index blob of `dir`; a replica that lacks
  // the blob is created from the index header (AppendOrCreate).
  [[nodiscard]] sim::Future<Status> AppendIndex(net::NodeId node, Ino dir,
                                                std::string name, bool deleted,
                                                trace::TraceContext trace);

  // Idempotent tail of a rename, shared by Rename and RecoverPending.
  [[nodiscard]] sim::Future<Status> CompleteRename(net::NodeId node, Ino ino,
                                                   trace::TraceContext trace);

  io::ReplicatedStore& store_;
  MetaConfig config_;
  MetricsRegistry* metrics_;
  Ino next_ino_ = kRootIno + 1;
  // Pending rename intents, ordered by ino so recovery replays
  // deterministically.
  std::map<Ino, PendingIntent> pending_;
  ClientStats stats_;
  // meta.dentries/<shard>: live dentry count per token range, across all
  // directories (empty without a registry).
  std::vector<std::int64_t*> shard_gauges_;
};

}  // namespace memfs::meta
