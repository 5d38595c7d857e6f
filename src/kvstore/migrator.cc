#include "kvstore/migrator.h"

#include <algorithm>
#include <cassert>
#include <iterator>
#include <map>
#include <memory>
#include <utility>

#include "common/metrics.h"
#include "common/units.h"

namespace memfs::kv {

namespace {

// Keys per handoff chunk (one lock scope, one batch per (source, target)).
constexpr std::size_t kBatchKeys = 32;
// Chunks in flight at once — bounds how much fabric the migration steals
// from foreground traffic.
constexpr std::uint32_t kMaxInflight = 4;
// Pause between sweeps that found (or failed) work, letting crashed
// servers restart and in-flight writes settle.
constexpr sim::SimTime kSweepDelay = units::Millis(1);

}  // namespace

Migrator::Migrator(sim::Simulation& sim, Membership& membership,
                   MigratorConfig config)
    : sim_(sim), membership_(membership), config_(config) {
  if (MetricsRegistry* metrics = membership_.storage().metrics()) {
    active_gauge_ = &metrics->Gauge("migrate.active");
    keys_total_gauge_ = &metrics->Gauge("migrate.keys_total");
    keys_moved_gauge_ = &metrics->Gauge("migrate.keys_moved");
    bytes_moved_gauge_ = &metrics->Gauge("migrate.bytes_moved");
    sweeps_gauge_ = &metrics->Gauge("migrate.sweeps");
  }
}

void Migrator::SyncGauges() {
  GaugeSet(active_gauge_, progress_.active ? 1 : 0);
  GaugeSet(keys_total_gauge_,
           static_cast<std::int64_t>(progress_.keys_total));
  GaugeSet(keys_moved_gauge_,
           static_cast<std::int64_t>(progress_.keys_moved));
  GaugeSet(bytes_moved_gauge_,
           static_cast<std::int64_t>(progress_.bytes_moved));
  GaugeSet(sweeps_gauge_, static_cast<std::int64_t>(progress_.sweeps));
}

bool Migrator::TargetsSatisfied(const std::string& key) const {
  const KvCluster& storage = membership_.storage();
  for (std::uint32_t target :
       membership_.ring().ReplicaChain(key, membership_.config().replication)) {
    if (!storage.server(target).Exists(key)) return false;
  }
  return true;
}

std::vector<std::string> Migrator::CollectPending() const {
  KvCluster& storage = membership_.storage();
  std::vector<std::string> all;
  for (std::uint32_t i = 0; i < storage.server_count(); ++i) {
    if (membership_.state(i) == NodeState::kLeft) continue;
    std::vector<std::string> keys = storage.server(i).Keys();
    all.insert(all.end(), std::make_move_iterator(keys.begin()),
               std::make_move_iterator(keys.end()));
  }
  std::sort(all.begin(), all.end());
  all.erase(std::unique(all.begin(), all.end()), all.end());

  const std::uint32_t replicas = membership_.config().replication;
  std::vector<std::string> pending;
  for (std::string& key : all) {
    if (!membership_.KeyMoves(key)) continue;
    if (!TargetsSatisfied(key)) {
      pending.push_back(std::move(key));
      continue;
    }
    // Targets are populated (an earlier sweep, or a dual-committed write);
    // the key still needs a pass when a *reachable* displaced holder keeps a
    // stale copy to reclaim. Unreachable holders never block convergence: a
    // drained one is cleared at LEFT, a crashed one is never read again.
    const auto new_chain = membership_.ring().ReplicaChain(key, replicas);
    for (std::uint32_t holder :
         membership_.old_ring()->ReplicaChain(key, replicas)) {
      if (std::find(new_chain.begin(), new_chain.end(), holder) !=
          new_chain.end()) {
        continue;
      }
      if (storage.IsServerLeft(holder) || storage.IsServerDown(holder)) {
        continue;
      }
      if (storage.server(holder).Exists(key)) {
        pending.push_back(std::move(key));
        break;
      }
    }
  }
  return pending;
}

sim::Future<Status> Migrator::Rebalance(trace::TraceContext trace) {
  assert(!running_ && "one migration run at a time");
  running_ = true;
  trace::ScopedSpan run(trace, "migrate.run", "migrate");
  const trace::TraceContext tctx = run.context();
  if (!membership_.migrating()) {
    running_ = false;
    co_return Status::Ok();
  }
  progress_.active = true;
  SyncGauges();
  Status result;
  std::uint32_t sweeps_this_run = 0;
  while (true) {
    std::vector<std::string> pending = CollectPending();
    progress_.keys_total = progress_.keys_moved + pending.size();
    SyncGauges();
    if (pending.empty()) {
      membership_.CommitTransition();
      trace::Event(tctx, "transition_committed");
      result = Status::Ok();
      break;
    }
    if (sweeps_this_run >= config_.max_sweeps) {
      // Leave the transition open: double-read and dual-commit keep the
      // cluster consistent, and a later Run() resumes from here.
      result = status::Unavailable("migration did not converge after " +
                                   std::to_string(sweeps_this_run) +
                                   " sweeps; re-run to resume");
      break;
    }
    ++sweeps_this_run;
    ++progress_.sweeps;
    SyncGauges();
    {
      trace::ScopedSpan sweep_span(tctx, "migrate.sweep", "migrate");
      trace::Annotate(sweep_span.context(), "pending",
                      std::to_string(pending.size()));
      SweepState sweep(sim_, kMaxInflight);
      for (std::size_t begin = 0; begin < pending.size();
           begin += kBatchKeys) {
        const std::size_t end = std::min(pending.size(), begin + kBatchKeys);
        std::vector<std::string> chunk(
            std::make_move_iterator(pending.begin() +
                                    static_cast<std::ptrdiff_t>(begin)),
            std::make_move_iterator(pending.begin() +
                                    static_cast<std::ptrdiff_t>(end)));
        sweep.wg.Add();
        MoveChunk(std::move(chunk), &sweep, sweep_span.context());
      }
      co_await sweep.wg.Wait();
      if (sweep.failed) trace::Event(sweep_span.context(), "sweep_incomplete");
    }
    // Let restarting servers come back and in-flight writes settle before
    // re-scanning.
    trace::ScopedSpan wait(tctx, "sweep_backoff", "retry");
    co_await sim_.Delay(kSweepDelay);
  }
  progress_.active = false;
  SyncGauges();
  running_ = false;
  co_return std::move(result);
}

sim::Task Migrator::MoveChunk(std::vector<std::string> keys,
                              SweepState* sweep, trace::TraceContext trace) {
  KvCluster& storage = membership_.storage();
  HandoffGate& gate = membership_.gate();
  const std::uint32_t replicas = membership_.config().replication;
  co_await sweep->chunk_slots.Acquire();
  trace::ScopedSpan span(trace, "migrate.handoff", "migrate");
  const trace::TraceContext tctx = span.context();
  trace::Annotate(tctx, "keys", std::to_string(keys.size()));

  // Lock every key of the chunk against writers. Keys are globally sorted
  // (the pending list is), and writers only ever hold one key at a time, so
  // this cannot deadlock.
  for (const std::string& key : keys) {
    co_await gate.Lock(key);
  }

  // Plan under the locks: placement state cannot change beneath us now.
  std::vector<KeyPlan> plans;
  plans.reserve(keys.size());
  for (const std::string& key : keys) {
    KeyPlan plan;
    plan.key = key;
    if (membership_.KeyMoves(key)) {
      const auto new_chain = membership_.ring().ReplicaChain(key, replicas);
      const auto old_chain =
          membership_.old_ring()->ReplicaChain(key, replicas);
      for (std::uint32_t target : new_chain) {
        if (!storage.server(target).Exists(key)) plan.adds.push_back(target);
      }
      for (std::uint32_t holder : old_chain) {
        if (std::find(new_chain.begin(), new_chain.end(), holder) ==
                new_chain.end() &&
            !storage.IsServerLeft(holder) && !storage.IsServerDown(holder) &&
            storage.server(holder).Exists(key)) {
          plan.removes.push_back(holder);
        }
      }
      if (!plan.adds.empty()) {
        // Source preference: a healthy holder first (old chain, then new,
        // then anywhere — the last covers garbage left by older failures),
        // falling back to a down holder so the batch retries can catch its
        // restart.
        auto consider = [&](std::uint32_t server, bool allow_down) {
          if (plan.have_source || storage.IsServerLeft(server)) return;
          if (!allow_down && storage.IsServerDown(server)) return;
          if (storage.server(server).Exists(key)) {
            plan.source = server;
            plan.have_source = true;
          }
        };
        for (int pass = 0; pass < 2 && !plan.have_source; ++pass) {
          const bool allow_down = pass == 1;
          for (std::uint32_t s : old_chain) consider(s, allow_down);
          for (std::uint32_t s : new_chain) consider(s, allow_down);
          for (std::uint32_t s = 0; s < storage.server_count(); ++s) {
            consider(s, allow_down);
          }
        }
        // No copy anywhere: the value is gone (lost to a wipe) and there is
        // nothing to move; do not block the sweep on it.
        if (!plan.have_source) plan.adds.clear();
      }
    }
    plans.push_back(std::move(plan));
  }

  // Fetch phase: one MULTI_GET per (source, puller) pair, all in flight at
  // once. The puller is the node of the key's first missing target, so the
  // bytes cross the fabric exactly once on the GET leg and the SET onto that
  // target is node-local.
  std::map<std::pair<std::uint32_t, net::NodeId>, std::vector<KeyPlan*>> gets;
  for (KeyPlan& plan : plans) {
    if (plan.adds.empty() || !plan.have_source) continue;
    const net::NodeId puller = storage.node_of(plan.adds.front());
    gets[{plan.source, puller}].push_back(&plan);
  }
  std::vector<std::pair<std::vector<KeyPlan*>, sim::Future<BatchResult>>>
      get_batches;
  get_batches.reserve(gets.size());
  for (auto& [route, group] : gets) {
    std::vector<BatchItem> items;
    items.reserve(group.size());
    for (KeyPlan* plan : group) items.push_back({plan->key, {}});
    get_batches.emplace_back(
        group, storage.Batch(route.second, route.first, BatchKind::kGet,
                             std::move(items), tctx));
  }
  for (auto& [group, future] : get_batches) {
    // The awaited batch RPC only touches servers, never the gate: writers
    // blocked on these key locks are exactly what the handoff protocol
    // requires, and the server side makes progress independently.
    // lint: allow(await-held-lock) migration RPCs run under the key locks by design
    const BatchResult call = co_await future;
    for (std::size_t j = 0; j < group.size(); ++j) {
      if (call->result(j).status.ok()) {
        group[j]->value = std::move(call->result(j).value);
        group[j]->fetched = true;
      } else {
        group[j]->ok = false;
      }
    }
  }

  // Install phase: one MULTI_SET per (target, puller) pair.
  std::map<std::pair<std::uint32_t, net::NodeId>, std::vector<KeyPlan*>> sets;
  for (KeyPlan& plan : plans) {
    if (!plan.ok || plan.adds.empty() || !plan.fetched) continue;
    const net::NodeId puller = storage.node_of(plan.adds.front());
    for (std::uint32_t target : plan.adds) {
      sets[{target, puller}].push_back(&plan);
    }
  }
  std::vector<std::pair<std::vector<KeyPlan*>, sim::Future<BatchResult>>>
      set_batches;
  set_batches.reserve(sets.size());
  for (auto& [route, group] : sets) {
    std::vector<BatchItem> items;
    items.reserve(group.size());
    for (KeyPlan* plan : group) items.push_back({plan->key, plan->value});
    set_batches.emplace_back(
        group, storage.Batch(route.second, route.first, BatchKind::kSet,
                             std::move(items), tctx));
  }
  for (auto& [group, future] : set_batches) {
    const BatchResult call = co_await future;
    for (std::size_t j = 0; j < group.size(); ++j) {
      if (call->result(j).status.ok()) {
        progress_.bytes_moved += group[j]->value.StoredSize();
      } else {
        group[j]->ok = false;
      }
    }
  }
  SyncGauges();

  // Commit phase: a key whose targets all hold a copy now routes purely via
  // the new ring (still under the lock, so no writer observes a half state).
  bool any_failed = false;
  for (KeyPlan& plan : plans) {
    if (!plan.ok) {
      any_failed = true;
      continue;
    }
    if (membership_.KeyMoves(plan.key) &&
        !membership_.Committed(plan.key)) {
      membership_.MarkCommitted(plan.key);
      ++progress_.keys_moved;
      trace::Event(tctx, "handoff_committed");
    }
  }
  SyncGauges();

  // Cleanup phase: reclaim the displaced old copies of committed keys. A
  // failed delete is tolerated (the holder crashed, or the drained server
  // will be cleared at LEFT); the next sweep retries reachable ones.
  std::map<std::uint32_t, std::vector<BatchItem>> deletes;
  for (KeyPlan& plan : plans) {
    if (!plan.ok || !membership_.Committed(plan.key)) continue;
    for (std::uint32_t holder : plan.removes) {
      deletes[holder].push_back({plan.key, {}});
    }
  }
  std::vector<sim::Future<BatchResult>> delete_futures;
  delete_futures.reserve(deletes.size());
  for (auto& [holder, items] : deletes) {
    delete_futures.push_back(storage.Batch(storage.node_of(holder), holder,
                                           BatchKind::kDelete,
                                           std::move(items), tctx));
  }
  for (auto& future : delete_futures) {
    // best-effort reclaim; re-swept if reachable
    (void)co_await future;
  }

  for (const std::string& key : keys) {
    gate.Unlock(key);
  }
  if (any_failed) {
    sweep->failed = true;
    ++progress_.failed_chunks;
    trace::Event(tctx, "chunk_incomplete");
  }
  sweep->chunk_slots.Release();
  sweep->wg.Done();
}

}  // namespace memfs::kv
