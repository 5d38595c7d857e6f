// Simulated Memcached deployment: one KvServer per storage node, driven over
// the fluid network with bounded per-server worker concurrency and a per-op
// service-time model.
//
// The cost model encodes the behaviour the paper leans on (§4.1): GET is
// cheaper than SET at the server, APPEND pays an extra synchronization cost,
// and every operation moves `header_bytes` of framing in addition to key and
// value bytes — which is why 1 KB-file workloads are latency-bound while
// 128 MB-file workloads are bandwidth-bound.
//
// One RPC engine serves every entry point: Batch() is the libmemcached
// multi-op (§3.2.2), and each single-key call is a one-item batch whose
// verdict is unwrapped into a Status or Result<Bytes>. Every call runs under
// the client policy (the robustness extension): bounded retries with
// decorrelated-jitter backoff, an optional per-attempt deadline that catches
// slow (not just dead) servers and lost messages, and a per-server circuit
// breaker so clients skip a known-bad server instead of paying the failure
// timeout on every stripe. Deadline semantics are gRPC-like: cancellation
// propagates to the server, so an item that misses its deadline is never
// applied — which is what makes retrying non-idempotent ADD/APPEND safe.
// Once an item has its verdict (a mutation committed, a GET read its value)
// the client waits for the reply.
#pragma once

#include <array>
#include <cstdint>
#include <deque>
#include <memory>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "common/bytes.h"
#include "common/metrics.h"
#include "common/retry.h"
#include "common/rng.h"
#include "common/status.h"
#include "common/units.h"
#include "kvstore/kv_server.h"
#include "net/network.h"
#include "sim/future.h"
#include "sim/simulation.h"
#include "sim/sync.h"
#include "sim/task.h"
#include "trace/trace.h"

namespace memfs::kv {

struct KvOpCostModel {
  // Server-side service time = base + size * ns_per_byte.
  sim::SimTime set_base = units::Micros(10);
  double set_ns_per_byte = 0.15;
  sim::SimTime get_base = units::Micros(5);
  double get_ns_per_byte = 0.08;
  sim::SimTime append_base = units::Micros(12);  // internal lock + sync
  double append_ns_per_byte = 0.20;
  sim::SimTime delete_base = units::Micros(5);
  // Concurrent requests a server processes (Memcached worker threads).
  std::uint32_t workers = 8;
  // Protocol framing per message (command, key echo, flags, CRLF...).
  std::uint64_t header_bytes = 48;
  // Per-RPC dispatch share of the per-op base constants above: the recv
  // syscall, worker wakeup and command parse that every message pays exactly
  // once. The first item of a message pays it inside its base; items after
  // the first are priced at base - rpc_dispatch (this is the libmemcached
  // multi-op amortization the paper measures in §3.2.2), so a single-key
  // call — a batch of one — pays the full base. Must stay below the
  // smallest base.
  sim::SimTime rpc_dispatch = units::Micros(4);
  // Time for a client to give up on a server that is down (connection
  // timeout); used by the fault-tolerance extension.
  sim::SimTime failure_timeout = units::Millis(1);
};

// Client-side fault-handling knobs, applied uniformly to every operation.
struct KvClientPolicy {
  RetryPolicy retry;
  CircuitBreakerConfig breaker;
  // Per-attempt deadline covering queueing, the request leg and service time
  // up to the server's commit point; 0 disables. A lost or slow request
  // surfaces as DEADLINE_EXCEEDED (retryable) instead of hanging.
  sim::SimTime op_deadline = 0;
};

// Client-observed fault-handling and batching activity, kept per server
// (server_stats) and summed over all servers (stats).
struct KvClusterStats {
  std::uint64_t retries = 0;             // backoff-then-retry transitions
  std::uint64_t deadline_exceeded = 0;   // attempts cut off by the deadline
  std::uint64_t breaker_opens = 0;       // closed/half-open -> open trips
  std::uint64_t breaker_fast_fails = 0;  // requests rejected while open
  std::uint64_t single_rpcs = 0;         // single-key-call attempts sent
  std::uint64_t batch_rpcs = 0;          // batch attempts put on the wire
  std::uint64_t batch_items = 0;         // items carried by those batches
};

// One call as the client sees it: its items, their verdicts, and which
// verdicts are final. Every entry point builds one (with one item for a
// single-key call); every wire attempt carries the still-unresolved items
// and writes their verdicts straight into it; the call's future resolves to
// it once every item has its outcome.
struct BatchCall {
  // `resolved`: the verdict streamed back from the server — a committed
  // mutation, never re-sent, or a GET that has read its value. An
  // unresolved item carries the error of the last attempt that carried it.
  struct Outcome {
    BatchItemResult result;
    bool resolved = false;
  };

  BatchCall(BatchKind call_kind, std::vector<BatchItem> call_items)
      : kind(call_kind),
        items(std::move(call_items)),
        outcomes(items.size()) {}

  BatchItemResult& result(std::size_t i) { return outcomes[i].result; }
  const BatchItemResult& result(std::size_t i) const {
    return outcomes[i].result;
  }

  BatchKind kind;
  std::vector<BatchItem> items;
  std::vector<Outcome> outcomes;  // aligned with items

  // The wire attempt in flight, owned by the retry driver (kv_cluster.cc).
  // An attempt whose number is no longer `attempt`, or whose client stopped
  // waiting (`settled`), is abandoned and writes nothing further.
  std::uint32_t attempt = 0;
  bool settled = false;   // the client stopped waiting on this attempt
  bool finished = false;  // this attempt's acknowledgement arrived
  Status attempt_error;   // the verdict its unresolved items inherit
  sim::VoidPromise attempt_done;
  // The attempt's deadline timer; settling the attempt cancels it.
  sim::EventId deadline;
};

using BatchResult = std::shared_ptr<BatchCall>;

class KvCluster {
 public:
  // Lightweight view handed to the protocol coroutines (the slot itself
  // outlives every in-flight operation because the cluster owns it). The
  // gauge pointers are nullptr without a registry — GaugeAdd/GaugeSet then
  // reduce to one branch, the tracer's null-context discipline.
  struct ServerSlotAccess {
    net::NodeId node;
    sim::Semaphore* workers;
    const bool* down;
    const double* slow_factor;
    KvServer* state = nullptr;
    std::int64_t* mem_gauge = nullptr;       // kv.mem_bytes/<index>
    std::int64_t* objects_gauge = nullptr;   // kv.objects/<index>
    std::int64_t* queue_gauge = nullptr;     // kv.queue/<index>
    std::int64_t* inflight_gauge = nullptr;  // kv.inflight/<index>
  };

  // `metrics` (optional, caller-owned) records kv.set/get/append/delete
  // latency histograms as observed by clients, plus kv.* fault counters.
  KvCluster(sim::Simulation& sim, net::Network& network,
            std::vector<net::NodeId> server_nodes,
            KvServerConfig server_config = {}, KvOpCostModel cost_model = {},
            MetricsRegistry* metrics = nullptr, KvClientPolicy policy = {});

  std::uint32_t server_count() const {
    return static_cast<std::uint32_t>(servers_.size());
  }
  KvServer& server(std::uint32_t index) { return *servers_[index].state; }
  const KvServer& server(std::uint32_t index) const {
    return *servers_[index].state;
  }
  net::NodeId node_of(std::uint32_t index) const {
    return servers_[index].node;
  }
  const KvOpCostModel& cost_model() const { return cost_; }
  const KvClientPolicy& client_policy() const { return policy_; }
  // Client-side activity summed over every server slot.
  KvClusterStats stats() const;
  // The registry this cluster records into (nullptr when uninstrumented);
  // layered clients (src/io) register their own gauges against it.
  MetricsRegistry* metrics() const { return metrics_; }

  // All operations are addressed by server index (the caller's Distributor
  // picks the index) and carry the issuing client's node for the network leg.
  // Each single-key call is a one-item Batch() underneath, unwrapped into its
  // item's verdict. `trace` (optional) parents a "kv.<kind>" span covering
  // the whole operation — every "kv.attempt", backoff wait and breaker
  // rejection is recorded under it.
  [[nodiscard]] sim::Future<Status> Set(net::NodeId client, std::uint32_t server,
                          std::string key, Bytes value,
                          trace::TraceContext trace = {});
  [[nodiscard]] sim::Future<Status> Add(net::NodeId client, std::uint32_t server,
                          std::string key, Bytes value,
                          trace::TraceContext trace = {});
  [[nodiscard]] sim::Future<Result<Bytes>> Get(net::NodeId client, std::uint32_t server,
                                 std::string key,
                                 trace::TraceContext trace = {});
  [[nodiscard]] sim::Future<Status> Append(net::NodeId client, std::uint32_t server,
                             std::string key, Bytes suffix,
                             trace::TraceContext trace = {});
  [[nodiscard]] sim::Future<Status> Delete(net::NodeId client, std::uint32_t server,
                             std::string key,
                             trace::TraceContext trace = {});

  // Batch RPC: ships all items to the server in one message (one
  // header_bytes framing cost for the whole batch), processes them in order
  // under a single worker slot paying per-item service time, and returns
  // per-item verdicts aligned with the input. Per-item responses stream back
  // as each item commits, so when an attempt is cut off (deadline, lost
  // request) the client knows exactly which items were applied and retries
  // only the rest — a retried ADD/APPEND is applied exactly once. The
  // "kv.batch" span parents one "kv.batch.attempt" per wire attempt and a
  // per-key "kv.item" child span for every processed item. The future
  // resolves to the call itself; item i's verdict is `result(i)`.
  [[nodiscard]] sim::Future<BatchResult> Batch(
      net::NodeId client, std::uint32_t server, BatchKind kind,
      std::vector<BatchItem> items, trace::TraceContext trace = {});

  // How this client treated one server: attempts, retries, breaker trips
  // and batching. Surfaced by memfs_run's per-server kv table.
  const KvClusterStats& server_stats(std::uint32_t index) const {
    return servers_[index].stats;
  }

  // Aggregate stored bytes across all servers (Fig. 9-style accounting).
  std::uint64_t total_memory_used() const;

  // Failure injection: a down server answers nothing; clients time out with
  // UNAVAILABLE after `failure_timeout` (or DEADLINE_EXCEEDED when an op
  // deadline is armed and shorter). Bringing a server back with
  // `wipe_on_restart` drops its stored data — a Memcached process restart
  // loses RAM — so recovery paths (failover reads, read repair) are actually
  // exercised; without it the "restart" models an un-partitioned comeback.
  void SetServerDown(std::uint32_t index, bool down,
                     bool wipe_on_restart = false);
  bool IsServerDown(std::uint32_t index) const;

  // Permanent departure (drained node reaching LEFT): the slot's data is
  // dropped and every future request to it fast-fails with
  // UNAVAILABLE_PERMANENT — no retries, no breaker probes, no failure
  // timeout. Unlike SetServerDown this is one-way: the index is retired and
  // never reused (indices are identities on the ketama ring).
  void SetServerLeft(std::uint32_t index);
  bool IsServerLeft(std::uint32_t index) const;

  // Slow-server episode: multiplies every service time on the server
  // (1.0 = healthy). With an op deadline armed, a slow-enough server times
  // out exactly like a dead one — but keeps consuming worker slots.
  void SetServerSlowdown(std::uint32_t index, double factor);
  double ServerSlowdown(std::uint32_t index) const;

  // Circuit-breaker visibility (tests, harness reporting).
  CircuitBreaker::State BreakerState(std::uint32_t index) const {
    return servers_[index].breaker.state();
  }

  // Elastic scale-out (the paper's future work, §5): registers a new, empty
  // server on `node` and returns its index. Existing slots stay valid.
  std::uint32_t AddServer(net::NodeId node);

 private:
  struct ServerSlot {
    net::NodeId node;
    std::unique_ptr<KvServer> state;
    std::unique_ptr<sim::Semaphore> workers;
    bool down = false;
    bool left = false;  // drained to LEFT: fast-fail, never retried
    double slow_factor = 1.0;
    CircuitBreaker breaker;
    KvClusterStats stats;  // client-side activity against this server
    // Per-server monitor gauges (see monitor/monitor.h), nullptr without a
    // registry. Storage gauges track the server state after every apply;
    // queue/inflight track worker-slot demand; breaker holds the
    // CircuitBreaker::State numeric (0 closed, 1 open, 2 half-open).
    std::int64_t* mem_gauge = nullptr;
    std::int64_t* objects_gauge = nullptr;
    std::int64_t* queue_gauge = nullptr;
    std::int64_t* inflight_gauge = nullptr;
    std::int64_t* breaker_gauge = nullptr;
  };

  ServerSlotAccess AccessOf(ServerSlot& slot) const {
    return {slot.node,          slot.workers.get(), &slot.down,
            &slot.slow_factor,  slot.state.get(),   slot.mem_gauge,
            slot.objects_gauge, slot.queue_gauge,   slot.inflight_gauge};
  }

  // The one front half of every entry point: builds the call, opens its op
  // span, resolves its latency histograms and starts the retry driver.
  // `single` marks a single-key call (a one-item `items`), reported as
  // "kv.<kind>" alone.
  sim::Future<BatchResult> Call(net::NodeId client, std::uint32_t server,
                                BatchKind kind, std::vector<BatchItem> items,
                                trace::TraceContext trace, bool single);

  // Retry driver: sends the still-unresolved items as one wire attempt per
  // round (resolved items are final; unresolved items inherit the attempt
  // error and form the next round) under the breaker/backoff/deadline
  // policy. `single` picks the single-key call's stats and span names.
  // Owns ending `op_span`. With a registry it calls RecordLatency just
  // before resolving `done`.
  sim::Task RunBatchWithRetry(std::uint32_t server, net::NodeId client,
                              BatchResult call,
                              sim::Promise<BatchResult> done,
                              trace::TraceContext op_span, bool single);
  // Records a finished call's latency since `start` into the histograms
  // Call resolved: one kv.<kind> sample for a single-key call; one
  // kv.batch.<kind> sample plus one kv.<kind> sample per item for a batch.
  // The kv.<kind> or kv.batch.<kind> sample's exemplar names `op_span` and
  // `server`. Not a coroutine, so its locals stay out of RunBatchWithRetry's
  // frame.
  void RecordLatency(const BatchCall& call, sim::SimTime start,
                     const trace::TraceContext& op_span, net::NodeId client,
                     std::uint32_t server, bool single);

  // Registry handles, each resolved on first use (so a metric is created
  // when it is first needed, as per-call lookups did) and then kept.
  // Histogram() needs a registry; Bump() is a no-op without one.
  LatencyHistogram& Histogram(LatencyHistogram*& handle, std::string_view name);
  void Bump(std::uint64_t*& counter, std::string_view name);
  struct MetricHandles {
    std::array<LatencyHistogram*, 5> op{};     // kv.<kind>, by BatchKind
    std::array<LatencyHistogram*, 5> batch{};  // kv.batch.<kind>
    LatencyHistogram* batch_size = nullptr;
    std::uint64_t* retries = nullptr;
    std::uint64_t* deadline_exceeded = nullptr;
    std::uint64_t* breaker_opens = nullptr;
    std::uint64_t* breaker_fast_fails = nullptr;
  };

  sim::Simulation& sim_;
  net::Network& network_;
  KvOpCostModel cost_;
  KvServerConfig server_config_;  // template for servers added later
  MetricsRegistry* metrics_;
  MetricHandles handles_;
  KvClientPolicy policy_;
  Rng rng_;
  // deque: growing the cluster must not invalidate references held by
  // in-flight operations.
  std::deque<ServerSlot> servers_;
};

}  // namespace memfs::kv
