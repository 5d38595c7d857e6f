// Elastic cluster membership (robustness extension; the paper's future
// work, §5).
//
// The paper fixes the server set at mount time; this module makes it
// elastic. Every storage server moves through the lifecycle
//
//     JOINING -> ACTIVE -> DRAINING -> LEFT
//
// and the key-to-server mapping is an epoch-versioned ketama ring over the
// current member set (hash::KetamaRing). A join or drain opens a
// *transition*: the previous ring is kept alongside the new one and a
// background migrator (migrator.h) streams the affected keys to their new
// homes. While the transition is open:
//
//  * reads consult the new ring first and fall back to the old ring's extra
//    replicas (double-read), so a key is findable wherever it currently is;
//  * writes to a key that moves are dual-committed: the old-ring chain is
//    authoritative (its verdicts decide) and the new-ring chain receives a
//    best-effort copy, so the migrator can never clobber a fresher value and
//    a crash at any instant leaves at least one authoritative copy;
//  * per-key handoff is serialized by a HandoffGate — the migrator locks a
//    key only when no writer is inside, and writers wait out a handoff in
//    FIFO order — which closes the copy-then-stale-overwrite race.
//
// CommitTransition() retires the old ring; a drained server is told to
// fast-fail every future request with UNAVAILABLE_PERMANENT
// (KvCluster::SetServerLeft), the definitive "this copy is gone" signal the
// failover read path turns into a distinct client-visible error instead of
// spinning retries against data that no longer exists anywhere.
#pragma once

#include <cassert>
#include <coroutine>
#include <cstdint>
#include <deque>
#include <memory>
#include <string>
#include <string_view>
#include <unordered_map>
#include <unordered_set>
#include <vector>

#include "common/string_hash.h"
#include "hash/distributor.h"
#include "kvstore/kv_cluster.h"
#include "sim/simulation.h"

namespace memfs::kv {

enum class NodeState : std::uint8_t { kJoining, kActive, kDraining, kLeft };

const char* NodeStateName(NodeState state);

struct MembershipConfig {
  // Copies per key; must match the file system's replication factor when a
  // MemFs routes through this membership.
  std::uint32_t replication = 1;
};

// Per-key mutual exclusion between writers and the migrator's handoff. Not a
// reader/writer lock: any number of writers may hold a key concurrently
// (last-write-wins, same as the ungated path); the migrator's Lock() waits
// until every writer has exited and blocks new writers until Unlock(). All
// wakeups go through the simulation event queue, FIFO, deterministically.
class HandoffGate {
 public:
  explicit HandoffGate(sim::Simulation& sim) : sim_(&sim) {}

  HandoffGate(const HandoffGate&) = delete;
  HandoffGate& operator=(const HandoffGate&) = delete;

  struct WriterAwaiter {
    HandoffGate* gate;
    std::string key;
    bool await_ready() const { return gate->TryEnterWriter(key); }
    void await_suspend(std::coroutine_handle<> h) {
      gate->SuspendWriter(key, h);
    }
    void await_resume() const noexcept {}
  };

  struct LockAwaiter {
    HandoffGate* gate;
    std::string key;
    bool await_ready() const { return gate->TryLock(key); }
    void await_suspend(std::coroutine_handle<> h) {
      gate->SuspendLocker(key, h);
    }
    void await_resume() const noexcept {}
  };

  // co_await gate.EnterWriter(key); ... gate.ExitWriter(key);
  WriterAwaiter EnterWriter(std::string key) {
    return {this, std::move(key)};
  }
  void ExitWriter(std::string_view key);

  // co_await gate.Lock(key); ... gate.Unlock(key);  (migrator only)
  LockAwaiter Lock(std::string key) { return {this, std::move(key)}; }
  void Unlock(std::string_view key);

  bool locked(std::string_view key) const;
  std::uint32_t writers(std::string_view key) const;

 private:
  struct KeyState {
    bool locked = false;
    std::uint32_t writers = 0;
    std::deque<std::coroutine_handle<>> waiting_writers;
    std::deque<std::coroutine_handle<>> waiting_lockers;
  };

  bool TryEnterWriter(const std::string& key);
  void SuspendWriter(const std::string& key, std::coroutine_handle<> h);
  bool TryLock(const std::string& key);
  void SuspendLocker(const std::string& key, std::coroutine_handle<> h);
  // Hands the lock to the next waiting locker, or admits all waiting
  // writers; erases the state once fully idle.
  void Advance(const std::string& key);

  sim::Simulation* sim_;
  std::unordered_map<std::string, KeyState> keys_;
};

class Membership {
 public:
  // Every server currently registered with `storage` starts ACTIVE; the ring
  // is built over their indices. `storage` must outlive the membership.
  Membership(sim::Simulation& sim, KvCluster& storage,
             MembershipConfig config = {});

  const MembershipConfig& config() const { return config_; }
  KvCluster& storage() { return storage_; }
  HandoffGate& gate() { return gate_; }

  NodeState state(std::uint32_t server) const { return states_[server]; }
  std::uint32_t member_count() const { return ring_->member_count(); }
  // Monotone ring version; bumped by every BeginJoin/BeginDrain.
  std::uint64_t epoch() const { return epoch_; }
  // True while a transition is open (old ring retained, migrator pending).
  bool migrating() const { return old_ring_ != nullptr; }
  const hash::KetamaRing& ring() const { return *ring_; }
  const hash::KetamaRing* old_ring() const { return old_ring_.get(); }
  // The server being joined or drained by the open transition.
  std::uint32_t transition_server() const { return transition_server_; }

  // Opens a join transition: registers a fresh server on `node` with the
  // storage layer, marks it JOINING, and swaps in a ring that includes it.
  // Returns the new server's index. Requires no transition in flight.
  std::uint32_t BeginJoin(net::NodeId node);

  // Opens a drain transition: marks `server` DRAINING and swaps in a ring
  // without it. The server keeps serving reads (and authoritative writes)
  // until the migrator has moved its keys. Requires no transition in flight.
  void BeginDrain(std::uint32_t server);

  // Closes the open transition once every moved key is at its new home:
  // JOINING becomes ACTIVE, DRAINING becomes LEFT (and the storage slot
  // fast-fails from now on). Called by the migrator after a clean sweep.
  void CommitTransition();

  // True when `key`'s replica chain differs between the old and new ring
  // (only meaningful while a transition is open).
  bool KeyMoves(std::string_view key) const;

  // True when a writer of `key` must enter the handoff gate: a transition is
  // open, the key moves, and its handoff has not committed yet.
  bool ShouldGate(std::string_view key) const;

  // Servers to consult for a read, in order: the new ring's chain first,
  // then (while the key's handoff is pending) the old ring's extra holders.
  std::vector<std::uint32_t> ReadChain(std::string_view key) const;

  struct WriteRoute {
    // Authoritative chain: verdicts (EXISTS, NOT_FOUND, NO_SPACE...) and
    // acknowledgement counting come from these servers.
    std::vector<std::uint32_t> primary;
    // Best-effort dual-commit targets (the key's next home); written in
    // parallel, verdicts ignored.
    std::vector<std::uint32_t> secondary;
  };
  WriteRoute RouteWrite(std::string_view key) const;

  // Handoff bookkeeping (migrator): a committed key routes and reads purely
  // through the new ring.
  void MarkCommitted(const std::string& key) { committed_.insert(key); }
  bool Committed(std::string_view key) const {
    return committed_.find(key) != committed_.end();
  }

 private:
  std::vector<std::uint32_t> ChainOn(const hash::KetamaRing& ring,
                                     std::string_view key) const {
    return ring.ReplicaChain(key, config_.replication);
  }
  void SyncStateGauge(std::uint32_t server);
  void OpenTransition(std::unique_ptr<hash::KetamaRing> next,
                      std::uint32_t server);

  sim::Simulation& sim_;
  KvCluster& storage_;
  MembershipConfig config_;
  HandoffGate gate_;
  std::vector<NodeState> states_;  // indexed by server id
  std::unique_ptr<hash::KetamaRing> ring_;      // current (newest) ring
  std::unique_ptr<hash::KetamaRing> old_ring_;  // pre-transition ring
  std::uint64_t epoch_ = 0;
  std::uint32_t transition_server_ = 0;
  bool transition_is_join_ = false;
  // Keys whose handoff finished this transition (lookups and clear only —
  // never iterated, so the unordered container cannot leak hash order).
  // StringHash lets Committed() look keys up by string_view.
  std::unordered_set<std::string, StringHash, std::equal_to<>> committed_;
  // Monitor gauges (nullptr without a registry): member.epoch and
  // member.state/<i> (the NodeState numeric).
  std::int64_t* epoch_gauge_ = nullptr;
  std::vector<std::int64_t*> state_gauges_;
};

}  // namespace memfs::kv
