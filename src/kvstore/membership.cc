#include "kvstore/membership.h"

#include <algorithm>
#include <utility>

#include "common/metrics.h"
#include "sim/checker.h"

namespace memfs::kv {

const char* NodeStateName(NodeState state) {
  switch (state) {
    case NodeState::kJoining: return "JOINING";
    case NodeState::kActive: return "ACTIVE";
    case NodeState::kDraining: return "DRAINING";
    case NodeState::kLeft: return "LEFT";
  }
  return "UNKNOWN";
}

// ---------------------------------------------------------------------------
// HandoffGate

bool HandoffGate::TryEnterWriter(const std::string& key) {
  KeyState& state = keys_[key];
  if (state.locked || !state.waiting_lockers.empty()) return false;
  ++state.writers;
  return true;
}

void HandoffGate::SuspendWriter(const std::string& key,
                                std::coroutine_handle<> h) {
  if (sim::SimChecker* checker = sim_->checker()) {
    checker->OnSuspend(h, sim::WaitKind::kSemaphore, this, "HandoffGate");
  }
  keys_[key].waiting_writers.push_back(h);
}

void HandoffGate::ExitWriter(std::string_view key) {
  auto it = keys_.find(std::string(key));
  assert(it != keys_.end() && it->second.writers > 0);
  if (--it->second.writers == 0) Advance(it->first);
}

bool HandoffGate::TryLock(const std::string& key) {
  KeyState& state = keys_[key];
  if (state.locked || state.writers > 0) return false;
  state.locked = true;
  return true;
}

void HandoffGate::SuspendLocker(const std::string& key,
                                std::coroutine_handle<> h) {
  if (sim::SimChecker* checker = sim_->checker()) {
    checker->OnSuspend(h, sim::WaitKind::kSemaphore, this, "HandoffGate");
  }
  keys_[key].waiting_lockers.push_back(h);
}

void HandoffGate::Unlock(std::string_view key) {
  auto it = keys_.find(std::string(key));
  assert(it != keys_.end() && it->second.locked);
  it->second.locked = false;
  Advance(it->first);
}

void HandoffGate::Advance(const std::string& key) {
  auto it = keys_.find(key);
  assert(it != keys_.end());
  KeyState& state = it->second;
  if (state.locked || state.writers > 0) return;
  sim::SimChecker* checker = sim_->checker();
  if (!state.waiting_lockers.empty()) {
    // Hand the lock straight to the longest-waiting locker; queued writers
    // stay parked until it unlocks (handoff has priority, or the migrator
    // could starve under a steady write stream).
    state.locked = true;
    auto handle = state.waiting_lockers.front();
    state.waiting_lockers.pop_front();
    if (checker != nullptr) checker->OnResume(handle);
    sim_->Resume(handle);
    return;
  }
  if (!state.waiting_writers.empty()) {
    // Admit every parked writer, FIFO. Their writer slots are taken here,
    // before any of them runs, so a Lock() arriving in between still waits.
    std::deque<std::coroutine_handle<>> admitted;
    admitted.swap(state.waiting_writers);
    state.writers += static_cast<std::uint32_t>(admitted.size());
    for (auto handle : admitted) {
      if (checker != nullptr) checker->OnResume(handle);
      sim_->Resume(handle);
    }
    return;
  }
  keys_.erase(it);  // fully idle: drop the per-key state
}

bool HandoffGate::locked(std::string_view key) const {
  auto it = keys_.find(std::string(key));
  return it != keys_.end() && it->second.locked;
}

std::uint32_t HandoffGate::writers(std::string_view key) const {
  auto it = keys_.find(std::string(key));
  return it == keys_.end() ? 0 : it->second.writers;
}

// ---------------------------------------------------------------------------
// Membership

namespace {

// Ring points per server and the hash that places them: the ketama
// distributor's defaults (hash/distributor.h), so the live ring and a
// default-hash MemFs with use_ketama agree on the initial full set.
constexpr std::uint32_t kVnodesPerServer = 160;
constexpr hash::HashKind kRingHash = hash::HashKind::kFnv1a64;

std::vector<std::uint32_t> ActiveMembers(std::uint32_t servers) {
  std::vector<std::uint32_t> members(servers);
  for (std::uint32_t i = 0; i < servers; ++i) members[i] = i;
  return members;
}

}  // namespace

Membership::Membership(sim::Simulation& sim, KvCluster& storage,
                       MembershipConfig config)
    : sim_(sim), storage_(storage), config_(config), gate_(sim) {
  const std::uint32_t servers = storage_.server_count();
  assert(servers > 0);
  states_.assign(servers, NodeState::kActive);
  ring_ = std::make_unique<hash::KetamaRing>(
      ActiveMembers(servers), kVnodesPerServer, kRingHash);
  if (MetricsRegistry* metrics = storage_.metrics()) {
    epoch_gauge_ = &metrics->Gauge("member.epoch");
    state_gauges_.reserve(servers);
    for (std::uint32_t i = 0; i < servers; ++i) {
      state_gauges_.push_back(
          &metrics->Gauge(InstanceGaugeName("member.state", i)));
    }
  }
  for (std::uint32_t i = 0; i < servers; ++i) SyncStateGauge(i);
}

void Membership::SyncStateGauge(std::uint32_t server) {
  if (server < state_gauges_.size()) {
    GaugeSet(state_gauges_[server],
             static_cast<std::int64_t>(states_[server]));
  }
}

void Membership::OpenTransition(std::unique_ptr<hash::KetamaRing> next,
                                std::uint32_t server) {
  assert(!migrating() && "one transition at a time");
  old_ring_ = std::move(ring_);
  ring_ = std::move(next);
  transition_server_ = server;
  ++epoch_;
  GaugeSet(epoch_gauge_, static_cast<std::int64_t>(epoch_));
}

std::uint32_t Membership::BeginJoin(net::NodeId node) {
  const std::uint32_t server = storage_.AddServer(node);
  states_.push_back(NodeState::kJoining);
  if (MetricsRegistry* metrics = storage_.metrics()) {
    state_gauges_.push_back(
        &metrics->Gauge(InstanceGaugeName("member.state", server)));
  }
  std::vector<std::uint32_t> members = ring_->members();
  members.push_back(server);
  auto next = std::make_unique<hash::KetamaRing>(
      std::move(members), kVnodesPerServer, kRingHash);
  OpenTransition(std::move(next), server);
  transition_is_join_ = true;
  SyncStateGauge(server);
  return server;
}

void Membership::BeginDrain(std::uint32_t server) {
  assert(server < states_.size() && states_[server] == NodeState::kActive);
  assert(ring_->member_count() > 1 && "cannot drain the last member");
  states_[server] = NodeState::kDraining;
  std::vector<std::uint32_t> members;
  members.reserve(ring_->member_count() - 1);
  for (std::uint32_t m : ring_->members()) {
    if (m != server) members.push_back(m);
  }
  auto next = std::make_unique<hash::KetamaRing>(
      std::move(members), kVnodesPerServer, kRingHash);
  OpenTransition(std::move(next), server);
  transition_is_join_ = false;
  SyncStateGauge(server);
}

void Membership::CommitTransition() {
  assert(migrating() && "no transition to commit");
  if (transition_is_join_) {
    states_[transition_server_] = NodeState::kActive;
  } else {
    states_[transition_server_] = NodeState::kLeft;
    // From now on every request to the drained slot fast-fails with
    // UNAVAILABLE_PERMANENT and its storage is reclaimed.
    storage_.SetServerLeft(transition_server_);
  }
  SyncStateGauge(transition_server_);
  old_ring_.reset();
  committed_.clear();
}

bool Membership::KeyMoves(std::string_view key) const {
  if (!migrating()) return false;
  return ChainOn(*old_ring_, key) != ChainOn(*ring_, key);
}

bool Membership::ShouldGate(std::string_view key) const {
  return migrating() && !Committed(key) && KeyMoves(key);
}

std::vector<std::uint32_t> Membership::ReadChain(std::string_view key) const {
  std::vector<std::uint32_t> chain = ChainOn(*ring_, key);
  if (!migrating() || Committed(key)) return chain;
  // Double-read window: the key may still live only at its old home. Append
  // the old chain's extra holders after the new chain so readers fall back.
  for (std::uint32_t server : ChainOn(*old_ring_, key)) {
    if (std::find(chain.begin(), chain.end(), server) == chain.end()) {
      chain.push_back(server);
    }
  }
  return chain;
}

Membership::WriteRoute Membership::RouteWrite(std::string_view key) const {
  WriteRoute route;
  if (!migrating() || Committed(key)) {
    route.primary = ChainOn(*ring_, key);
    return route;
  }
  std::vector<std::uint32_t> old_chain = ChainOn(*old_ring_, key);
  std::vector<std::uint32_t> new_chain = ChainOn(*ring_, key);
  if (old_chain == new_chain) {
    route.primary = std::move(new_chain);
    return route;
  }
  // Pending handoff: the old chain still holds the authoritative copies (the
  // migrator reads from there), so its verdicts decide; the new chain gets a
  // best-effort dual-commit so a crash after handoff cannot lose the write.
  route.primary = std::move(old_chain);
  for (std::uint32_t server : new_chain) {
    if (std::find(route.primary.begin(), route.primary.end(), server) ==
        route.primary.end()) {
      route.secondary.push_back(server);
    }
  }
  return route;
}

}  // namespace memfs::kv
