#include "io/replicated_store.h"

#include <algorithm>
#include <cassert>
#include <utility>

namespace memfs::io {

namespace {

// Full passes over the replica chain before a read gives up. A pass that
// proves the key absent (every replica reachable, none has it) returns
// NOT_FOUND immediately; only reads blocked by unreachable replicas are
// retried, with an escalating delay between passes.
constexpr std::uint32_t kReadChainAttempts = 3;

}  // namespace

ReplicatedStore::ReplicatedStore(sim::Simulation& sim, kv::KvCluster& storage,
                                 ReplicaConfig config, ReplicaStats& stats)
    : sim_(sim),
      storage_(storage),
      config_(config),
      stats_(stats),
      sched_(sim, storage, config.io) {
  epochs_.push_back(MakeDistributor(storage_.server_count()));
}

void ReplicatedStore::SeedKey(const std::string& key, const Bytes& value) {
  for (std::uint32_t r = 0; r < ReplicaCount(kMetadataEpoch); ++r) {
    const Status status =
        storage_.server(ReplicaServer(kMetadataEpoch, key, r)).Set(key, value);
    assert(status.ok());
    (void)status;
  }
}

void ReplicatedStore::SeedAppendKey(const std::string& key, const Bytes& header,
                                    const Bytes& event) {
  for (std::uint32_t r = 0; r < ReplicaCount(kMetadataEpoch); ++r) {
    auto& server = storage_.server(ReplicaServer(kMetadataEpoch, key, r));
    Status status = server.Append(key, event);
    if (status.code() == ErrorCode::kNotFound) {
      Bytes blob = header;
      blob.Append(event);
      status = server.Set(key, blob);
    }
    assert(status.ok());
    (void)status;
  }
}

std::unique_ptr<hash::Distributor> ReplicatedStore::MakeDistributor(
    std::uint32_t servers) const {
  if (config_.use_ketama) {
    return hash::MakeKetama(servers, 160, config_.hash_kind);
  }
  return hash::MakeModulo(servers, config_.hash_kind);
}

std::uint32_t ReplicatedStore::AddStorageServer(net::NodeId kv_node) {
  assert(membership_ == nullptr &&
         "epoch pinning and elastic membership do not mix");
  (void)storage_.AddServer(kv_node);
  epochs_.push_back(MakeDistributor(storage_.server_count()));
  return current_epoch();
}

void ReplicatedStore::AttachMembership(kv::Membership* membership) {
  assert(membership == nullptr ||
         (config_.use_ketama && epochs_.size() == 1 &&
          membership->config().replication == config_.replication &&
          membership->member_count() == storage_.server_count()));
  membership_ = membership;
}

std::vector<std::uint32_t> ReplicatedStore::LegacyChain(
    std::uint32_t epoch, std::string_view key) const {
  const std::uint32_t replicas = ReplicaCount(epoch);
  std::vector<std::uint32_t> chain;
  chain.reserve(replicas);
  for (std::uint32_t r = 0; r < replicas; ++r) {
    chain.push_back(ReplicaServer(epoch, key, r));
  }
  return chain;
}

std::vector<std::uint32_t> ReplicatedStore::GetChain(
    std::uint32_t epoch, std::string_view key) const {
  if (membership_ != nullptr) return membership_->ReadChain(key);
  return LegacyChain(epoch, key);
}

kv::Membership::WriteRoute ReplicatedStore::WriteRouteFor(
    std::uint32_t epoch, std::string_view key) const {
  if (membership_ != nullptr) return membership_->RouteWrite(key);
  kv::Membership::WriteRoute route;
  route.primary = LegacyChain(epoch, key);
  return route;
}

// ---------------------------------------------------------------------------
// Replication-aware storage primitives (§3.2.5 extension)

std::uint32_t ReplicatedStore::ReplicaCount(std::uint32_t epoch) const {
  return std::min<std::uint32_t>(
      std::max<std::uint32_t>(config_.replication, 1),
      epochs_[epoch]->server_count());
}

std::uint32_t ReplicatedStore::ReplicaServer(std::uint32_t epoch,
                                             std::string_view key,
                                             std::uint32_t replica) const {
  const auto& ring = *epochs_[epoch];
  return (ring.ServerFor(key) + replica) % ring.server_count();
}

sim::Future<Status> ReplicatedStore::MutateReplica(std::uint32_t epoch,
                                                   net::NodeId node,
                                                   std::uint32_t server,
                                                   std::string key, Bytes value,
                                                   bool append,
                                                   std::uint32_t header_size,
                                                   trace::TraceContext trace) {
  if (!append) {
    return sched_.Set(node, server, std::move(key), std::move(value), trace);
  }
  if (header_size == 0) {
    return sched_.Append(node, server, std::move(key), std::move(value),
                         trace);
  }
  return AppendCreating(epoch, node, server, std::move(key),
                        value.Slice(0, header_size),
                        value.Slice(header_size, value.size()), trace);
}

sim::Future<Status> ReplicatedStore::AppendCreating(std::uint32_t epoch,
                                                    net::NodeId node,
                                                    std::uint32_t server,
                                                    std::string key,
                                                    Bytes header, Bytes suffix,
                                                    trace::TraceContext trace) {
  Status status = co_await sched_.Append(node, server, key, suffix, trace);
  if (status.code() != ErrorCode::kNotFound) co_return std::move(status);
  // This replica lacks the key: it is new, or the replica missed its
  // creation. Seed it from a peer that holds it, so it also gets the
  // suffixes it missed; `header` alone when no peer does.
  Bytes blob = std::move(header);
  for (std::uint32_t peer : GetChain(epoch, key)) {
    if (peer == server) continue;
    Result<Bytes> held = co_await sched_.Get(node, peer, key, trace);
    if (held.ok()) {
      blob = std::move(held.value());
      break;
    }
  }
  blob.Append(suffix);
  status = co_await sched_.Add(node, server, key, std::move(blob), trace);
  if (status.code() != ErrorCode::kExists) co_return std::move(status);
  co_return co_await sched_.Append(node, server, std::move(key),
                                   std::move(suffix), trace);
}

sim::Future<Status> ReplicatedStore::ReplicatedMutation(
    std::uint32_t epoch, net::NodeId node, std::string key, Bytes value,
    bool append, trace::TraceContext trace, std::uint32_t header_size) {
  // Elastic handoff window: serialize against the migrator so a concurrent
  // copy can never install a value older than this write. The route is
  // computed only after the gate admits us — the handoff may have committed
  // while we waited, flipping the key onto the new ring.
  const bool gated =
      membership_ != nullptr && membership_->ShouldGate(key);
  if (gated) co_await membership_->gate().EnterWriter(key);
  const kv::Membership::WriteRoute route = WriteRouteFor(epoch, key);
  if (route.primary.size() == 1 && route.secondary.empty()) {
    // Single copy: no replica layer to show — the kv op span hangs directly
    // off the caller's span.
    Status status =
        co_await MutateReplica(epoch, node, route.primary.front(), key,
                               std::move(value), append, header_size, trace);
    if (gated) membership_->gate().ExitWriter(key);
    co_return std::move(status);
  }
  trace::ScopedSpan span(trace, append ? "replica.append" : "replica.set",
                         "replica");
  const trace::TraceContext tctx = span.context();
  // All replicas written in parallel. Strict mode succeeds only if every
  // replica acknowledges (a down replica fails the write — the paper's
  // stated cost of replication, which is why it defaults off). Degraded mode
  // tolerates unreachable replicas as long as one copy lands; read repair
  // reinstalls the skipped copies once their server is back.
  std::vector<sim::Future<Status>> futures;
  futures.reserve(route.primary.size());
  for (std::uint32_t server : route.primary) {
    futures.push_back(MutateReplica(epoch, node, server, key, value, append,
                                    header_size, tctx));
  }
  // Dual-commit onto the key's next home while its handoff is pending:
  // best-effort, verdicts ignored — the old chain stays authoritative until
  // the migrator commits, and the migrator re-copies anything these miss.
  std::vector<sim::Future<Status>> shadow;
  shadow.reserve(route.secondary.size());
  for (std::uint32_t server : route.secondary) {
    trace::Event(tctx, "dual_commit");
    shadow.push_back(MutateReplica(epoch, node, server, key, value, append,
                                   header_size, tctx));
  }
  std::uint32_t acks = 0;
  Status first_error;
  bool all_errors_retryable = true;
  for (auto& future : futures) {
    Status status = co_await future;
    if (status.ok()) {
      ++acks;
    } else {
      if (first_error.ok()) first_error = status;
      if (!IsRetryable(status.code())) all_errors_retryable = false;
    }
  }
  for (auto& future : shadow) {
    // best-effort dual-commit; migrator re-copies
    (void)co_await future;
  }
  if (gated) membership_->gate().ExitWriter(key);
  if (acks == route.primary.size()) co_return Status::Ok();
  // Only availability errors are forgivable; a replica that answered with a
  // real error (NO_SPACE, NOT_FOUND on append...) still fails the write.
  if (acks > 0 && config_.degraded_writes && all_errors_retryable) {
    trace::Event(tctx, "degraded_write");
    ++stats_.degraded_writes;
    if (config_.metrics != nullptr) {
      ++config_.metrics->Counter("fs.degraded_writes");
    }
    co_return Status::Ok();
  }
  co_return std::move(first_error);
}

sim::Future<Status> ReplicatedStore::AppendOrCreate(net::NodeId node,
                                                    std::string key,
                                                    Bytes header, Bytes suffix,
                                                    trace::TraceContext trace) {
  const auto header_size = static_cast<std::uint32_t>(header.size());
  header.Append(suffix);
  return ReplicatedMutation(kMetadataEpoch, node, std::move(key),
                            std::move(header), /*append=*/true, trace,
                            header_size);
}

sim::Future<Status> ReplicatedStore::ReplicatedAdd(net::NodeId node,
                                                   std::string key, Bytes value,
                                                   trace::TraceContext trace) {
  const bool gated =
      membership_ != nullptr && membership_->ShouldGate(key);
  if (gated) co_await membership_->gate().EnterWriter(key);
  const kv::Membership::WriteRoute route = WriteRouteFor(kMetadataEpoch, key);
  // Strict mode keeps the original semantics: the record's home server alone
  // arbitrates ADD.
  const std::uint32_t tries =
      config_.degraded_writes
          ? static_cast<std::uint32_t>(route.primary.size())
          : 1;
  trace::ScopedSpan span;
  trace::TraceContext tctx = trace;
  if (tries > 1) {
    span = trace::ScopedSpan(trace, "replica.add", "replica");
    tctx = span.context();
  }
  Status last = status::Unavailable("no replicas");
  for (std::uint32_t r = 0; r < tries; ++r) {
    last = co_await sched_.Add(node, route.primary[r], key, value, tctx);
    if (last.ok()) {
      if (r > 0) {
        trace::Event(tctx, "write_failover");
        ++stats_.write_failovers;
        if (config_.metrics != nullptr) {
          ++config_.metrics->Counter("fs.write_failovers");
        }
      }
      break;
    }
    // A reachable replica's verdict (e.g. EXISTS) stands; only availability
    // errors justify moving down the chain.
    if (!IsRetryable(last.code())) break;
  }
  if (last.ok()) {
    // Shadow the accepted record onto the key's next home while a handoff is
    // pending; the old chain's verdict already stands.
    for (std::uint32_t server : route.secondary) {
      trace::Event(tctx, "dual_commit");
      // best-effort dual-commit; migrator re-copies
      (void)co_await sched_.Add(node, server, key, value, tctx);
    }
  }
  if (gated) membership_->gate().ExitWriter(key);
  co_return std::move(last);
}

sim::Future<Status> ReplicatedStore::MetaAdd(net::NodeId node, std::string key,
                                             Bytes value,
                                             trace::TraceContext trace) {
  Status added = co_await ReplicatedAdd(node, key, value, trace);
  if (!added.ok()) co_return std::move(added);
  // The accepted record fans out to the rest of the chain so every replica
  // can answer failover reads and take APPENDs; a replica that is down stays
  // empty until read repair finds it.
  const kv::Membership::WriteRoute route = WriteRouteFor(kMetadataEpoch, key);
  for (std::size_t r = 1; r < route.primary.size(); ++r) {
    // best-effort replica install
    (void)co_await sched_.Set(node, route.primary[r], key, value, trace);
  }
  for (std::uint32_t server : route.secondary) {
    // best-effort dual-commit
    (void)co_await sched_.Set(node, server, key, value, trace);
  }
  co_return Status::Ok();
}

sim::Future<Status> ReplicatedStore::ReplicatedDelete(
    net::NodeId node, std::string key, trace::TraceContext trace,
    std::uint32_t epoch) {
  const bool gated =
      membership_ != nullptr && membership_->ShouldGate(key);
  if (gated) co_await membership_->gate().EnterWriter(key);
  const kv::Membership::WriteRoute route = WriteRouteFor(epoch, key);
  trace::ScopedSpan span;
  trace::TraceContext tctx = trace;
  if (route.primary.size() + route.secondary.size() > 1) {
    span = trace::ScopedSpan(trace, "replica.delete", "replica");
    tctx = span.context();
  }
  std::vector<sim::Future<Status>> futures;
  futures.reserve(route.primary.size() + route.secondary.size());
  for (std::uint32_t server : route.primary) {
    futures.push_back(sched_.Delete(node, server, key, tctx));
  }
  // Also clear any dual-committed shadow copies so a committed handoff does
  // not resurrect the key.
  for (std::uint32_t server : route.secondary) {
    trace::Event(tctx, "dual_commit");
    futures.push_back(sched_.Delete(node, server, key, tctx));
  }
  Status result;
  for (auto& future : futures) {
    Status status = co_await future;
    // A replica that never held the key (or is down) does not fail the
    // delete; the primary's answer decides.
    if (&future == &futures.front()) result = std::move(status);
  }
  if (gated) membership_->gate().ExitWriter(key);
  co_return std::move(result);
}

sim::Future<Result<Bytes>> ReplicatedStore::FailoverGet(
    net::NodeId node, std::string key, trace::TraceContext trace,
    std::uint32_t epoch) {
  // The first look reuses the chain that decides the span; every later one
  // (a pass retry or a handoff-race retry) recomputes it: during an elastic
  // handoff the chain covers both the old and the new home, and a commit
  // between looks may shrink it.
  std::vector<std::uint32_t> chain = GetChain(epoch, key);
  trace::ScopedSpan span;
  trace::TraceContext tctx = trace;
  if (chain.size() > 1) {
    span = trace::ScopedSpan(trace, "replica.get", "replica");
    tctx = span.context();
  }
  Status unreachable;
  bool retried_absent = false;
  std::uint32_t pass = 0;
  for (bool first_look = true;; first_look = false) {
    if (!first_look) chain = GetChain(epoch, key);
    std::uint32_t not_found = 0;
    std::uint32_t permanent = 0;  // replicas gone for good (drained to LEFT)
    std::vector<std::uint32_t> missing;  // reachable replicas lacking the key
    for (std::size_t r = 0; r < chain.size(); ++r) {
      const std::uint32_t server = chain[r];
      Result<Bytes> got = co_await sched_.Get(node, server, key, tctx);
      if (got.ok()) {
        if (r > 0) {
          trace::Event(tctx, "failover");
          ++stats_.replica_failovers;
          if (config_.metrics != nullptr) {
            ++config_.metrics->Counter("fs.replica_failovers");
          }
          // Read repair: a replica that answered NOT_FOUND is reachable but
          // lost its copy (wipe-on-restart); reinstall it in the background.
          // Skipped while the key's handoff is pending — an un-gated repair
          // could land a stale value on the new home, which the migrator
          // would then mistake for a finished copy.
          if (membership_ == nullptr || !membership_->ShouldGate(key)) {
            for (std::uint32_t target : missing) {
              trace::Event(tctx, "read_repair");
              RunReadRepair(node, target, key, got.value());
            }
          }
        }
        co_return std::move(got);
      }
      if (got.status().code() == ErrorCode::kNotFound) {
        ++not_found;
        missing.push_back(server);
      } else if (got.status().code() == ErrorCode::kUnavailablePermanent) {
        ++permanent;
      } else {
        unreachable = got.status();
      }
    }
    if (not_found + permanent == chain.size()) {
      if (permanent > 0) {
        // Some copy was on a server that drained and LEFT; no amount of
        // retrying brings it back.
        co_return status::UnavailablePermanent(
            "replica chain left the cluster: " + key);
      }
      // Every replica answered and none holds the key. Mid-handoff that can
      // be a race (probed the new home before the copy, the old after the
      // cleanup); give the window one extra settled look before believing it.
      if (membership_ != nullptr && membership_->migrating() &&
          !retried_absent) {
        retried_absent = true;
        trace::Event(tctx, "handoff_race_retry");
        trace::ScopedSpan wait(tctx, "chain_backoff", "retry");
        co_await sim_.Delay(storage_.cost_model().failure_timeout);
        continue;  // does not consume a pass
      }
      co_return status::NotFound(key);
    }
    // Some replica was unreachable and may hold the only copy; run the chain
    // again after an escalating delay (it may be restarting, or its breaker
    // may be about to half-open).
    if (++pass >= kReadChainAttempts) break;
    trace::Event(tctx, "pass_retry");
    trace::ScopedSpan wait(tctx, "chain_backoff", "retry");
    co_await sim_.Delay(storage_.cost_model().failure_timeout * pass);
  }
  co_return unreachable.ok()
                ? status::Unavailable("all replicas unreachable: " + key)
                : unreachable;
}

sim::Task ReplicatedStore::RunReadRepair(net::NodeId node, std::uint32_t server,
                                         std::string key, Bytes value) {
  const Status status =
      co_await sched_.Set(node, server, std::move(key), std::move(value));
  if (status.ok()) {
    ++stats_.read_repairs;
    if (config_.metrics != nullptr) {
      ++config_.metrics->Counter("fs.read_repairs");
    }
  }
}

}  // namespace memfs::io
