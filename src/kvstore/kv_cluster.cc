#include "kvstore/kv_cluster.h"

#include <algorithm>
#include <memory>
#include <type_traits>
#include <utility>

namespace memfs::kv {

namespace {

// Seed of the backoff-jitter stream (fixed: healthy runs draw nothing,
// faulty runs are reproducible).
constexpr std::uint64_t kBackoffJitterSeed = 0x6b76726574727931ull;

// Mirrors the server's storage footprint into its monitor gauges after an
// apply (one branch per gauge without a registry).
void SyncStorageGauges(const KvCluster::ServerSlotAccess& slot) {
  GaugeSet(slot.mem_gauge,
           static_cast<std::int64_t>(slot.state->memory_used()));
  GaugeSet(slot.objects_gauge,
           static_cast<std::int64_t>(slot.state->object_count()));
}

// Exemplar tag for a kv-level operation: its op span plus the target server.
Exemplar KvTagOf(const trace::TraceContext& op_span, net::NodeId client,
                 std::uint32_t server) {
  Exemplar tag;
  tag.trace_id = op_span.trace_id;
  tag.span_id = op_span.span_id;
  tag.node = client;
  tag.server = server;
  return tag;
}

// Per-item service time for one batch item; GETs are priced on the value
// they return, everything else on the payload they carry.
sim::SimTime BatchItemService(const KvOpCostModel& cost, BatchKind kind,
                              std::uint64_t bytes) {
  auto scaled = [](sim::SimTime base, double ns_per_byte,
                   std::uint64_t n) -> sim::SimTime {
    return base + static_cast<sim::SimTime>(ns_per_byte *
                                            static_cast<double>(n));
  };
  switch (kind) {
    case BatchKind::kSet:
    case BatchKind::kAdd:
      return scaled(cost.set_base, cost.set_ns_per_byte, bytes);
    case BatchKind::kGet:
      return scaled(cost.get_base, cost.get_ns_per_byte, bytes);
    case BatchKind::kAppend:
      return scaled(cost.append_base, cost.append_ns_per_byte, bytes);
    case BatchKind::kDelete:
      return cost.delete_base;
  }
  return cost.set_base;
}

// Whether wire attempt `attempt` of `call` was abandoned: a later attempt
// replaced it, or the client stopped waiting on it.
bool Abandoned(const BatchCall& call, std::uint32_t attempt) {
  return call.attempt != attempt || call.settled;
}

// Ends the current attempt: the retry driver resumes and reads the verdicts.
// Its deadline timer, if still pending, leaves the queue unrun.
void SettleAttempt(sim::Simulation& sim, BatchCall& call) {
  call.settled = true;
  sim.Cancel(call.deadline);
  call.attempt_done.Set(sim::Done{});
}

// Cuts the current attempt off with `error`, unless it is already over.
void FailAttempt(sim::Simulation& sim, BatchCall& call, std::uint32_t attempt,
                 Status error) {
  if (Abandoned(call, attempt)) return;
  call.attempt_error = std::move(error);
  SettleAttempt(sim, call);
}

// The deadline of attempt `attempt`, fired while the attempt is still open.
void ExpireAttempt(sim::Simulation& sim, BatchCall& call,
                   std::uint32_t attempt) {
  // Every item has its verdict (mutations committed, GETs read their value):
  // only the reply is outstanding, so let it finish.
  for (const BatchCall::Outcome& outcome : call.outcomes) {
    if (!outcome.resolved) {
      FailAttempt(sim, call, attempt, status::DeadlineExceeded("op deadline"));
      return;
    }
  }
}

// One batch attempt: ship every unresolved item in one message (one
// header_bytes framing cost), process them in order under a single worker
// slot with per-item service time, stream each item's verdict at its commit
// point, and close with one acknowledgement. Resolved mutations move their
// payload into the server, so a later round never re-sends (or re-applies)
// them. The final reply leg carries all GET values at once; verdicts
// streamed before a mid-batch cancellation are considered delivered without
// charging a per-item ack — item acks are status-sized and folded into the
// batch framing.
sim::Task RunBatchAttempt(sim::Simulation& sim, net::Network& network,
                          KvCluster::ServerSlotAccess slot, net::NodeId client,
                          const KvOpCostModel& cost, BatchResult call,
                          std::uint32_t attempt, trace::TraceContext ctx) {
  trace::ScopedSpan span = trace::ScopedSpan::Adopt(ctx);
  const BatchKind kind = call->kind;
  const std::size_t total = call->items.size();
  std::uint64_t request_bytes = cost.header_bytes;
  for (std::size_t i = 0; i < total; ++i) {
    if (call->outcomes[i].resolved) continue;
    const BatchItem& item = call->items[i];
    request_bytes += item.key.size() + item.value.StoredSize();
  }
  if (network.DropMessage(client, slot.node)) {
    trace::Event(ctx, "request_lost");
    co_await sim.Delay(cost.failure_timeout);
    FailAttempt(sim, *call, attempt, status::DeadlineExceeded("request lost"));
    co_return;
  }
  {
    trace::ScopedSpan leg(ctx, "net.request", "net");
    co_await network.Transfer(client, slot.node, request_bytes);
  }
  if (*slot.down) {
    trace::Event(ctx, "server_down");
    co_await sim.Delay(cost.failure_timeout);
    FailAttempt(sim, *call, attempt, status::Unavailable("server down"));
    co_return;
  }
  GaugeAdd(slot.queue_gauge, 1);
  {
    trace::ScopedSpan queued = trace::ScopedSpan::Adopt(
        trace::ChildOn(ctx, "kv.queue", "queue", slot.node));
    co_await slot.workers->Acquire();
  }
  GaugeAdd(slot.queue_gauge, -1);
  GaugeAdd(slot.inflight_gauge, 1);
  std::uint64_t reply_payload = 0;
  bool first = true;
  for (std::size_t i = 0; i < total; ++i) {
    if (call->outcomes[i].resolved) continue;
    BatchItem& item = call->items[i];
    BatchItemResult result;
    bool applied = false;
    sim::SimTime service;
    if (kind == BatchKind::kGet) {
      // Reads are applied up front so the value size can price the service
      // time; harmless on cancellation because reads have no commit point.
      result = slot.state->ApplyBatchItem(kind, item);
      applied = true;
      service = BatchItemService(cost, kind, result.value.StoredSize());
    } else {
      service = BatchItemService(cost, kind, item.value.StoredSize());
    }
    // Items after the first ride the message's already-paid dispatch
    // (syscall + wakeup + parse), which the per-op bases include; a batch of
    // one (every single-key call) pays the full base.
    if (!first) service -= std::min(service, cost.rpc_dispatch);
    first = false;
    {
      trace::ScopedSpan item_span = trace::ScopedSpan::Adopt(
          trace::ChildOn(ctx, "kv.item", "kv.service", slot.node));
      trace::Annotate(item_span.context(), "key", item.key);
      co_await sim.Delay(static_cast<sim::SimTime>(
          static_cast<double>(service) * *slot.slow_factor));
    }
    if (Abandoned(*call, attempt)) {
      // The client gave up mid-batch; cancellation reaches the server before
      // this item's commit point, so it and everything after it are
      // discarded — a later round retries them exactly-once.
      trace::Event(ctx, "cancelled_mid_batch");
      slot.workers->Release();
      GaugeAdd(slot.inflight_gauge, -1);
      co_return;
    }
    if (!applied) result = slot.state->ApplyBatchItem(kind, item);
    if (kind == BatchKind::kGet && result.status.ok()) {
      reply_payload += result.value.StoredSize();
    }
    call->outcomes[i] = {std::move(result), true};
    SyncStorageGauges(slot);
  }
  slot.workers->Release();
  GaugeAdd(slot.inflight_gauge, -1);
  {
    trace::ScopedSpan leg(ctx, "net.reply", "net");
    co_await network.Transfer(slot.node, client,
                              cost.header_bytes + reply_payload);
  }
  if (Abandoned(*call, attempt)) co_return;
  call->finished = true;
  SettleAttempt(sim, *call);
}

// The future a single-key method returns for its one-item `call`: the
// call's one verdict (a Status, or a Result<Bytes> holding the value a GET
// read), one zero-time resume after the call resolves.
template <typename T>
sim::Future<T> Unwrap(sim::Simulation& /*sim*/,
                      sim::Future<BatchResult> call) {
  const BatchResult finished = co_await call;
  BatchItemResult& item = finished->result(0);
  if constexpr (std::is_same_v<T, Status>) {
    co_return std::move(item.status);
  } else {
    co_return item.status.ok() ? T(std::move(item.value))
                               : T(std::move(item.status));
  }
}

std::vector<BatchItem> OneItem(std::string key, Bytes value) {
  std::vector<BatchItem> items;
  items.push_back(BatchItem{std::move(key), std::move(value)});
  return items;
}

// Span and histogram names per BatchKind, indexed by its value.
constexpr const char* kOpNames[] = {"kv.set", "kv.add", "kv.get",
                                    "kv.append", "kv.delete"};
constexpr const char* kBatchNames[] = {"kv.batch.set", "kv.batch.add",
                                       "kv.batch.get", "kv.batch.append",
                                       "kv.batch.delete"};
static_assert(static_cast<int>(BatchKind::kDelete) == 4,
              "kOpNames/kBatchNames follow BatchKind's order");

}  // namespace

KvCluster::KvCluster(sim::Simulation& sim, net::Network& network,
                     std::vector<net::NodeId> server_nodes,
                     KvServerConfig server_config, KvOpCostModel cost_model,
                     MetricsRegistry* metrics, KvClientPolicy policy)
    : sim_(sim), network_(network), cost_(cost_model),
      server_config_(server_config), metrics_(metrics), policy_(policy),
      rng_(kBackoffJitterSeed) {
  for (net::NodeId node : server_nodes) {
    (void)AddServer(node);
  }
}

std::uint32_t KvCluster::AddServer(net::NodeId node) {
  ServerSlot slot;
  slot.node = node;
  slot.state = std::make_unique<KvServer>(server_config_);
  slot.workers = std::make_unique<sim::Semaphore>(sim_, cost_.workers);
  slot.breaker = CircuitBreaker(policy_.breaker);
  const auto index = static_cast<std::uint32_t>(servers_.size());
  if (metrics_ != nullptr) {
    slot.mem_gauge =
        &metrics_->Gauge(InstanceGaugeName("kv.mem_bytes", index));
    slot.objects_gauge =
        &metrics_->Gauge(InstanceGaugeName("kv.objects", index));
    slot.queue_gauge = &metrics_->Gauge(InstanceGaugeName("kv.queue", index));
    slot.inflight_gauge =
        &metrics_->Gauge(InstanceGaugeName("kv.inflight", index));
    slot.breaker_gauge =
        &metrics_->Gauge(InstanceGaugeName("kv.breaker", index));
  }
  servers_.push_back(std::move(slot));
  return index;
}

KvClusterStats KvCluster::stats() const {
  KvClusterStats total;
  for (const ServerSlot& slot : servers_) {
    total.retries += slot.stats.retries;
    total.deadline_exceeded += slot.stats.deadline_exceeded;
    total.breaker_opens += slot.stats.breaker_opens;
    total.breaker_fast_fails += slot.stats.breaker_fast_fails;
    total.single_rpcs += slot.stats.single_rpcs;
    total.batch_rpcs += slot.stats.batch_rpcs;
    total.batch_items += slot.stats.batch_items;
  }
  return total;
}

LatencyHistogram& KvCluster::Histogram(LatencyHistogram*& handle,
                                       std::string_view name) {
  if (handle == nullptr) handle = &metrics_->Histogram(name);
  return *handle;
}

void KvCluster::Bump(std::uint64_t*& counter, std::string_view name) {
  if (metrics_ == nullptr) return;
  if (counter == nullptr) counter = &metrics_->Counter(name);
  ++*counter;
}

sim::Task KvCluster::RunBatchWithRetry(std::uint32_t server,
                                       net::NodeId client, BatchResult call,
                                       sim::Promise<BatchResult> done,
                                       trace::TraceContext op_span,
                                       bool single) {
  trace::ScopedSpan op = trace::ScopedSpan::Adopt(op_span);
  auto& slot = servers_[server];
  std::size_t unresolved = call->items.size();
  // Gives every unresolved item `verdict` (a round that put nothing on the
  // wire, or the last one before giving up) and returns how many there are.
  auto fail_unresolved = [&call](const Status& verdict) {
    std::size_t count = 0;
    for (BatchCall::Outcome& outcome : call->outcomes) {
      if (outcome.resolved) continue;
      outcome.result = BatchItemResult{verdict, {}};
      ++count;
    }
    return count;
  };
  RetryState retry(policy_.retry, sim_.now());
  while (unresolved > 0) {
    if (slot.left) {
      // The server drained out of the cluster for good: answer immediately
      // with a non-retryable verdict so callers fail over (or surface the
      // loss) instead of burning the failure timeout per attempt.
      trace::Event(op_span, "server_left");
      fail_unresolved(status::UnavailablePermanent("server left"));
      break;
    }
    const bool allowed = slot.breaker.AllowRequest(sim_.now());
    GaugeSet(slot.breaker_gauge,
             static_cast<std::int64_t>(slot.breaker.state()));
    if (!allowed) {
      ++slot.stats.breaker_fast_fails;
      Bump(handles_.breaker_fast_fails, "kv.breaker_fast_fails");
      trace::Event(op_span, "breaker_fast_fail");
      fail_unresolved(status::Unavailable("circuit breaker open"));
    } else {
      // A new attempt number abandons every earlier attempt still running.
      const std::uint32_t attempt = ++call->attempt;
      call->settled = false;
      call->finished = false;
      call->attempt_error = Status();
      call->attempt_done = sim::VoidPromise(sim_);
      auto settled = call->attempt_done.GetFuture();
      trace::TraceContext attempt_span = trace::Child(
          op_span, single ? "kv.attempt" : "kv.batch.attempt", "kv.attempt");
      trace::Annotate(attempt_span, "attempt", std::to_string(attempt));
      if (single) {
        ++slot.stats.single_rpcs;
      } else {
        trace::Annotate(attempt_span, "items", std::to_string(unresolved));
        ++slot.stats.batch_rpcs;
        slot.stats.batch_items += unresolved;
        if (metrics_ != nullptr) {
          Histogram(handles_.batch_size, "kv.batch.size").Record(unresolved);
        }
      }
      RunBatchAttempt(sim_, network_, AccessOf(slot), client, cost_, call,
                      attempt, attempt_span);
      if (policy_.op_deadline > 0) {
        call->deadline =
            sim_.Schedule(policy_.op_deadline, [this, call, attempt] {
              ExpireAttempt(sim_, *call, attempt);
            });
      }
      (void)co_await settled;
      // Streamed verdicts are final (and, for mutations, committed — never
      // re-sent); unresolved items inherit the attempt error and form the
      // next round.
      unresolved = fail_unresolved(call->attempt_error);
      if (call->finished) {
        slot.breaker.RecordSuccess();
      } else {
        const std::uint64_t opens_before = slot.breaker.open_transitions();
        slot.breaker.RecordFailure(sim_.now());
        if (slot.breaker.open_transitions() != opens_before) {
          ++slot.stats.breaker_opens;
          Bump(handles_.breaker_opens, "kv.breaker_opens");
        }
        if (call->attempt_error.code() == ErrorCode::kDeadlineExceeded) {
          ++slot.stats.deadline_exceeded;
          Bump(handles_.deadline_exceeded, "kv.deadline_exceeded");
        }
      }
      GaugeSet(slot.breaker_gauge,
               static_cast<std::int64_t>(slot.breaker.state()));
    }
    if (unresolved == 0) break;
    const RetryState::Backoff backoff = retry.NextBackoff(rng_, sim_.now());
    if (!backoff.allowed) break;  // unresolved outcomes keep their error
    ++slot.stats.retries;
    Bump(handles_.retries, "kv.retries");
    {
      trace::ScopedSpan wait(op_span, "backoff", "retry");
      co_await sim_.Delay(backoff.nanos);
    }
  }
  if (metrics_ != nullptr) {
    RecordLatency(*call, retry.start_time(), op_span, client, server, single);
  }
  done.Set(std::move(call));
}

void KvCluster::RecordLatency(const BatchCall& call, sim::SimTime start,
                              const trace::TraceContext& op_span,
                              net::NodeId client, std::uint32_t server,
                              bool single) {
  const auto k = static_cast<std::size_t>(call.kind);
  const std::uint64_t nanos = sim_.now() - start;
  Exemplar tag = KvTagOf(op_span, client, server);
  tag.at = sim_.now();
  if (single) {
    handles_.op[k]->Record(nanos, tag);
    return;
  }
  handles_.batch[k]->Record(nanos, tag);
  for (std::size_t i = 0; i < call.items.size(); ++i) {
    handles_.op[k]->Record(nanos);
  }
}

sim::Future<BatchResult> KvCluster::Call(net::NodeId client,
                                         std::uint32_t server, BatchKind kind,
                                         std::vector<BatchItem> items,
                                         trace::TraceContext trace,
                                         bool single) {
  sim::Promise<BatchResult> done(sim_);
  auto future = done.GetFuture();
  const std::size_t count = items.size();
  auto call = std::allocate_shared<BatchCall>(
      sim::detail::PoolAllocator<BatchCall>{}, kind, std::move(items));
  if (count == 0) {
    done.Set(std::move(call));
    return future;
  }
  const auto k = static_cast<std::size_t>(kind);
  trace::TraceContext op_span =
      trace::Child(trace, single ? kOpNames[k] : "kv.batch", "kv");
  trace::Annotate(op_span, "server", std::to_string(server));
  if (!single) {
    trace::Annotate(op_span, "kind", BatchKindName(kind));
    trace::Annotate(op_span, "items", std::to_string(count));
  }
  // RunBatchWithRetry records into these when the call ends. Resolving
  // them now creates each series in the window its first call starts in.
  if (metrics_ != nullptr) {
    Histogram(handles_.op[k], kOpNames[k]);
    if (!single) Histogram(handles_.batch[k], kBatchNames[k]);
  }
  RunBatchWithRetry(server, client, std::move(call), std::move(done), op_span,
                    single);
  return future;
}

sim::Future<BatchResult> KvCluster::Batch(net::NodeId client,
                                          std::uint32_t server, BatchKind kind,
                                          std::vector<BatchItem> items,
                                          trace::TraceContext trace) {
  return Call(client, server, kind, std::move(items), trace,
              /*single=*/false);
}

sim::Future<Status> KvCluster::Set(net::NodeId client, std::uint32_t server,
                                   std::string key, Bytes value,
                                   trace::TraceContext trace) {
  return Unwrap<Status>(sim_, Call(client, server, BatchKind::kSet,
                                   OneItem(std::move(key), std::move(value)),
                                   trace, /*single=*/true));
}

sim::Future<Status> KvCluster::Add(net::NodeId client, std::uint32_t server,
                                   std::string key, Bytes value,
                                   trace::TraceContext trace) {
  return Unwrap<Status>(sim_, Call(client, server, BatchKind::kAdd,
                                   OneItem(std::move(key), std::move(value)),
                                   trace, /*single=*/true));
}

sim::Future<Status> KvCluster::Append(net::NodeId client, std::uint32_t server,
                                      std::string key, Bytes suffix,
                                      trace::TraceContext trace) {
  return Unwrap<Status>(sim_, Call(client, server, BatchKind::kAppend,
                                   OneItem(std::move(key), std::move(suffix)),
                                   trace, /*single=*/true));
}

sim::Future<Status> KvCluster::Delete(net::NodeId client, std::uint32_t server,
                                      std::string key,
                                      trace::TraceContext trace) {
  return Unwrap<Status>(sim_, Call(client, server, BatchKind::kDelete,
                                   OneItem(std::move(key), Bytes()), trace,
                                   /*single=*/true));
}

sim::Future<Result<Bytes>> KvCluster::Get(net::NodeId client,
                                          std::uint32_t server,
                                          std::string key,
                                          trace::TraceContext trace) {
  return Unwrap<Result<Bytes>>(
      sim_, Call(client, server, BatchKind::kGet,
                 OneItem(std::move(key), Bytes()), trace, /*single=*/true));
}

void KvCluster::SetServerDown(std::uint32_t index, bool down,
                              bool wipe_on_restart) {
  auto& slot = servers_[index];
  if (!down && wipe_on_restart) {
    slot.state->Clear();
    GaugeSet(slot.mem_gauge, 0);
    GaugeSet(slot.objects_gauge, 0);
  }
  slot.down = down;
}

bool KvCluster::IsServerDown(std::uint32_t index) const {
  return servers_[index].down;
}

void KvCluster::SetServerLeft(std::uint32_t index) {
  auto& slot = servers_[index];
  slot.left = true;
  slot.state->Clear();
  GaugeSet(slot.mem_gauge, 0);
  GaugeSet(slot.objects_gauge, 0);
}

bool KvCluster::IsServerLeft(std::uint32_t index) const {
  return servers_[index].left;
}

void KvCluster::SetServerSlowdown(std::uint32_t index, double factor) {
  servers_[index].slow_factor = factor <= 0.0 ? 1.0 : factor;
}

double KvCluster::ServerSlowdown(std::uint32_t index) const {
  return servers_[index].slow_factor;
}

std::uint64_t KvCluster::total_memory_used() const {
  std::uint64_t total = 0;
  for (const auto& slot : servers_) total += slot.state->memory_used();
  return total;
}

}  // namespace memfs::kv
