// The replica layer: every key-value record MemFS keeps — data stripes and
// both namespaces' metadata records — is placed, written and read through
// this one class: one distribution function for stripes and records alike
// (§3.1.2, §3.2.4), replicated on `replication` consecutive servers of the
// ring (§3.2.5). Placement is per ring epoch, or a live membership ring
// whose open transitions gate writes to moving keys and double-read both
// rings. With replication == 1 every primitive is a plain single-server
// operation.
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "common/bytes.h"
#include "common/metrics.h"
#include "common/status.h"
#include "hash/distributor.h"
#include "io/op_scheduler.h"
#include "kvstore/kv_cluster.h"
#include "kvstore/membership.h"
#include "net/network.h"
#include "sim/future.h"
#include "sim/simulation.h"
#include "sim/task.h"
#include "trace/trace.h"

namespace memfs::io {

// Metadata placement: always epoch 0, over the mount-time server set, so
// records stay findable across scale-outs.
inline constexpr std::uint32_t kMetadataEpoch = 0;

// The file system's placement and replication settings (MemFsConfig's
// fields of the same names).
struct ReplicaConfig {
  std::uint32_t replication = 1;
  bool degraded_writes = true;
  hash::HashKind hash_kind = hash::HashKind::kFnv1a64;
  bool use_ketama = false;
  IoConfig io;
  // Optional; receives the fs.* counters of the failure paths below.
  MetricsRegistry* metrics = nullptr;
};

// What the chain protocol did to hide a failure (all zero with one copy).
struct ReplicaStats {
  // Reads answered by a non-primary replica after a failure (replication>1).
  std::uint64_t replica_failovers = 0;
  // Mutations acknowledged by only a subset of replicas (degraded mode).
  std::uint64_t degraded_writes = 0;
  // CREATE/MKDIR records placed on a secondary because the primary was
  // unreachable (degraded mode).
  std::uint64_t write_failovers = 0;
  // Copies reinstalled on a reachable replica that had lost them (e.g. a
  // wipe-on-restart) after a failover read found the data elsewhere.
  std::uint64_t read_repairs = 0;
};

class ReplicatedStore {
 public:
  // `stats` is the owner's counter block; it must outlive this store.
  ReplicatedStore(sim::Simulation& sim, kv::KvCluster& storage,
                  ReplicaConfig config, ReplicaStats& stats);

  ReplicatedStore(const ReplicatedStore&) = delete;
  ReplicatedStore& operator=(const ReplicatedStore&) = delete;

  // The Simulation this store's coroutines run on.
  sim::Simulation& simulation() const { return sim_; }
  // The batching submission layer every storage op goes through.
  const OpScheduler& scheduler() const { return sched_; }
  // Distributor of the current (newest) ring epoch.
  const hash::Distributor& distributor() const { return *epochs_.back(); }
  std::uint32_t current_epoch() const {
    return static_cast<std::uint32_t>(epochs_.size() - 1);
  }

  // Registers server `kv_node` with the storage layer and opens a new ring
  // epoch over the enlarged server set. Returns the new epoch.
  std::uint32_t AddStorageServer(net::NodeId kv_node);
  // Routes every placement decision through `membership`'s live ring
  // instead of the frozen epochs (nullptr detaches). Requires use_ketama, a
  // matching replication factor, a single epoch and no traffic yet.
  void AttachMembership(kv::Membership* membership);
  kv::Membership* membership() const { return membership_; }

  // Replication-aware storage primitives. Records live on the metadata
  // ring; a stripe names the ring `epoch` its file was placed under.
  [[nodiscard]] sim::Future<Status> ReplicatedSet(
      net::NodeId node, std::string key, Bytes value,
      trace::TraceContext trace, std::uint32_t epoch = kMetadataEpoch) {
    return ReplicatedMutation(epoch, node, std::move(key), std::move(value),
                              /*append=*/false, trace);
  }
  [[nodiscard]] sim::Future<Status> ReplicatedAppend(
      net::NodeId node, std::string key, Bytes suffix,
      trace::TraceContext trace) {
    return ReplicatedMutation(kMetadataEpoch, node, std::move(key),
                              std::move(suffix), /*append=*/true, trace);
  }
  // APPEND that creates the key where it is missing: a replica that lacks
  // it gets a peer replica's copy (or `header` when no peer holds one)
  // followed by `suffix` (AppendCreating), at every chain length.
  [[nodiscard]] sim::Future<Status> AppendOrCreate(net::NodeId node,
                                                   std::string key,
                                                   Bytes header, Bytes suffix,
                                                   trace::TraceContext trace);
  // ADD with failover: tries replicas in ring order until one is reachable;
  // that replica's verdict (OK or EXISTS) decides. Degraded mode only — in
  // strict mode the primary alone is tried.
  [[nodiscard]] sim::Future<Status> ReplicatedAdd(net::NodeId node,
                                                  std::string key, Bytes value,
                                                  trace::TraceContext trace);
  [[nodiscard]] sim::Future<Status> ReplicatedDelete(
      net::NodeId node, std::string key, trace::TraceContext trace,
      std::uint32_t epoch = kMetadataEpoch);
  // ADD with full fan-out: the home replica arbitrates, then the accepted
  // value is installed on the rest of the chain with SETs, so every replica
  // can answer failover reads and take APPENDs (directory records, dentries,
  // rename intents). Index blobs are not ADDed this way: a sibling's APPEND
  // could reach a replica before its SET, so they are created per replica
  // by AppendOrCreate.
  [[nodiscard]] sim::Future<Status> MetaAdd(net::NodeId node, std::string key,
                                            Bytes value,
                                            trace::TraceContext trace);
  // Tries replicas in ring order until one answers; NOT_FOUND only if every
  // reachable replica lacks the key.
  [[nodiscard]] sim::Future<Result<Bytes>> FailoverGet(
      net::NodeId node, std::string key, trace::TraceContext trace,
      std::uint32_t epoch = kMetadataEpoch);

  // Deployment-time direct write of `value` to every replica of `key` on the
  // metadata ring (no simulated traffic; asserts success).
  void SeedKey(const std::string& key, const Bytes& value);
  // Same, but appends to an existing blob (creating it with `header` first).
  void SeedAppendKey(const std::string& key, const Bytes& header,
                     const Bytes& event);

 private:
  std::unique_ptr<hash::Distributor> MakeDistributor(
      std::uint32_t servers) const;

  // Number of copies actually kept (capped at the epoch's server count) and
  // the server holding copy `replica` of `key` under `epoch` (consecutive
  // on that epoch's ring).
  std::uint32_t ReplicaCount(std::uint32_t epoch) const;
  std::uint32_t ReplicaServer(std::uint32_t epoch, std::string_view key,
                              std::uint32_t replica) const;

  // The consecutive replica chain of `key` on the frozen epoch ring (the
  // pre-elastic placement rule, kept byte-identical).
  std::vector<std::uint32_t> LegacyChain(std::uint32_t epoch,
                                         std::string_view key) const;
  // Servers to consult for a read, in order. With a membership attached the
  // live ring decides (double-reading through an open transition);
  // otherwise the epoch chain.
  std::vector<std::uint32_t> GetChain(std::uint32_t epoch,
                                      std::string_view key) const;
  // Write routing: membership's primary/secondary split during a
  // transition, or the plain epoch chain as primary. When the key is gated
  // (ShouldGate), call this only while holding the handoff gate — the route
  // may flip to the new ring the moment a handoff commits.
  kv::Membership::WriteRoute WriteRouteFor(std::uint32_t epoch,
                                           std::string_view key) const;

  // SET or APPEND on every replica. An append whose first `header_size`
  // bytes of `value` are a creation header appends the rest, creating the
  // key from the header on a replica that lacks it. The header rides in
  // `value` so every mutation's coroutine frame keeps its size.
  [[nodiscard]] sim::Future<Status> ReplicatedMutation(
      std::uint32_t epoch, net::NodeId node, std::string key, Bytes value,
      bool append, trace::TraceContext trace, std::uint32_t header_size = 0);
  // One replica's share of a ReplicatedMutation.
  [[nodiscard]] sim::Future<Status> MutateReplica(
      std::uint32_t epoch, net::NodeId node, std::uint32_t server,
      std::string key, Bytes value, bool append, std::uint32_t header_size,
      trace::TraceContext trace);
  // APPEND on one replica. If it lacks the key, ADD there a peer replica's
  // copy (or `header` when no peer holds one) followed by `suffix`, and if a
  // sibling's ADD won that race, APPEND after all. Replicas run this
  // independently, so each one that acks holds `suffix` (twice when the
  // peer's copy already had it) and whatever a peer held when it was
  // created.
  [[nodiscard]] sim::Future<Status> AppendCreating(
      std::uint32_t epoch, net::NodeId node, std::uint32_t server,
      std::string key, Bytes header, Bytes suffix, trace::TraceContext trace);

  // Fire-and-forget reinstall of a copy that a failover read found missing.
  sim::Task RunReadRepair(net::NodeId node, std::uint32_t server,
                          std::string key, Bytes value);

  sim::Simulation& sim_;
  kv::KvCluster& storage_;
  ReplicaConfig config_;
  ReplicaStats& stats_;
  kv::Membership* membership_ = nullptr;  // elastic routing when non-null
  // One distributor per ring epoch; epochs_.back() places new files.
  std::vector<std::unique_ptr<hash::Distributor>> epochs_;
  // Batched per-(client, server) submission layer; every storage op
  // (stripes, metadata, replication fan-out, read repair) goes through it.
  OpScheduler sched_;
};

}  // namespace memfs::io
