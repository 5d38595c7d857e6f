#include "kvstore/kv_cluster.h"

#include <functional>
#include <memory>
#include <utility>

namespace memfs::kv {

// Outcome slot for a single attempt. The attempt coroutine and the deadline
// watchdog race to settle it; whoever loses finds `settled` and stands down.
// `applied` marks the server's commit point: once set, the watchdog lets the
// acknowledgement finish instead of reporting DEADLINE_EXCEEDED, so a retried
// ADD/APPEND can never have been applied by an earlier attempt.
template <typename T>
struct RaceState {
  explicit RaceState(sim::Simulation& sim) : promise(sim) {}

  sim::Promise<T> promise;
  bool settled = false;
  bool applied = false;

  void Settle(T value) {
    if (settled) return;
    settled = true;
    promise.Set(std::move(value));
  }
};

namespace {

template <typename T>
T ErrorResult(Status status);
template <>
Status ErrorResult<Status>(Status status) {
  return status;
}
template <>
Result<Bytes> ErrorResult<Result<Bytes>>(Status status) {
  return Result<Bytes>(std::move(status));
}

Status StatusOf(const Status& status) { return status; }
Status StatusOf(const Result<Bytes>& result) { return result.status(); }

// Mirrors the server's storage footprint into its monitor gauges after an
// apply (one branch per gauge without a registry).
void SyncStorageGauges(const KvCluster::ServerSlotAccess& slot) {
  GaugeSet(slot.mem_gauge,
           static_cast<std::int64_t>(slot.state->memory_used()));
  GaugeSet(slot.objects_gauge,
           static_cast<std::int64_t>(slot.state->object_count()));
}

// Awaits an operation's future and records the client-observed latency. A
// tag with a nonzero trace id also offers the sample to the histogram's
// exemplar reservoir (common/metrics.h), so the monitor can link a bad
// window back to this operation's span — and to the server it hit.
template <typename T>
sim::Task RecordKvLatency(sim::Future<T> future, sim::Simulation* sim,
                          LatencyHistogram* histogram, sim::SimTime start,
                          Exemplar tag = {}) {
  (void)co_await future;
  const std::uint64_t nanos = sim->now() - start;
  if (tag.trace_id == 0) {
    histogram->Record(nanos);
    co_return;
  }
  tag.at = sim->now();
  histogram->Record(nanos, tag);
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

// Same, but records one observation per batch item so the per-op
// kv.set/kv.get/... histograms stay balanced whichever path an op rides.
template <typename T>
sim::Task RecordKvItemLatencies(sim::Future<T> future, sim::Simulation* sim,
                                LatencyHistogram* histogram, std::size_t items,
                                sim::SimTime start) {
  (void)co_await future;
  for (std::size_t i = 0; i < items; ++i) {
    histogram->Record(sim->now() - start);
  }
}

template <typename T>
sim::Task RunDeadline(sim::Simulation& sim, std::shared_ptr<RaceState<T>> race,
                      sim::SimTime deadline) {
  co_await sim.Delay(deadline);
  if (race->applied) co_return;  // committed: wait for the acknowledgement
  race->Settle(ErrorResult<T>(status::DeadlineExceeded("op deadline")));
}

// One mutation attempt: ship key+value to the server, process under a worker
// slot, return a small acknowledgement. `ctx` is this attempt's span (owned
// here: the frame ends it on every exit path).
sim::Task RunMutationAttempt(sim::Simulation& sim, net::Network& network,
                             KvCluster::ServerSlotAccess slot,
                             net::NodeId client, std::uint64_t request_bytes,
                             sim::SimTime service_time,
                             std::shared_ptr<std::function<Status()>> apply,
                             std::shared_ptr<RaceState<Status>> race,
                             std::uint64_t ack_bytes,
                             sim::SimTime failure_timeout,
                             trace::TraceContext ctx) {
  trace::ScopedSpan attempt = trace::ScopedSpan::Adopt(ctx);
  if (network.DropMessage(client, slot.node)) {
    // The request evaporated; with no reply coming, the client can only wait
    // out its timeout (the deadline watchdog usually fires first).
    trace::Event(ctx, "request_lost");
    co_await sim.Delay(failure_timeout);
    race->Settle(status::DeadlineExceeded("request lost"));
    co_return;
  }
  {
    trace::ScopedSpan leg(ctx, "net.request", "net");
    co_await network.Transfer(client, slot.node, request_bytes);
  }
  if (*slot.down) {
    trace::Event(ctx, "server_down");
    co_await sim.Delay(failure_timeout);
    race->Settle(status::Unavailable("server down"));
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
  {
    trace::ScopedSpan service = trace::ScopedSpan::Adopt(
        trace::ChildOn(ctx, "kv.service", "kv.service", slot.node));
    co_await sim.Delay(static_cast<sim::SimTime>(
        static_cast<double>(service_time) * *slot.slow_factor));
  }
  if (race->settled) {
    // The client gave up on this attempt; cancellation reaches the server
    // before commit, so the request is discarded — a later retry stays
    // exactly-once for non-idempotent ADD/APPEND.
    trace::Event(ctx, "cancelled_before_commit");
    slot.workers->Release();
    GaugeAdd(slot.inflight_gauge, -1);
    co_return;
  }
  race->applied = true;
  trace::Event(ctx, "commit");
  Status status = (*apply)();
  SyncStorageGauges(slot);
  slot.workers->Release();
  GaugeAdd(slot.inflight_gauge, -1);
  {
    trace::ScopedSpan leg(ctx, "net.ack", "net");
    co_await network.Transfer(slot.node, client, ack_bytes);
  }
  race->Settle(std::move(status));
}

// One GET attempt; GETs have no commit point, so the deadline may preempt
// any phase and the value-sized reply leg is skipped once abandoned.
sim::Task RunGetAttempt(sim::Simulation& sim, net::Network& network,
                        KvCluster::ServerSlotAccess slot, net::NodeId client,
                        std::uint64_t request_bytes, const KvOpCostModel& cost,
                        KvServer* state, std::string key,
                        std::shared_ptr<RaceState<Result<Bytes>>> race,
                        trace::TraceContext ctx) {
  trace::ScopedSpan attempt = trace::ScopedSpan::Adopt(ctx);
  if (network.DropMessage(client, slot.node)) {
    trace::Event(ctx, "request_lost");
    co_await sim.Delay(cost.failure_timeout);
    race->Settle(Result<Bytes>(status::DeadlineExceeded("request lost")));
    co_return;
  }
  {
    trace::ScopedSpan leg(ctx, "net.request", "net");
    co_await network.Transfer(client, slot.node, request_bytes);
  }
  if (*slot.down) {
    trace::Event(ctx, "server_down");
    co_await sim.Delay(cost.failure_timeout);
    race->Settle(Result<Bytes>(status::Unavailable("server down")));
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
  Result<Bytes> result = state->Get(key);
  const std::uint64_t value_bytes =
      result.ok() ? result.value().StoredSize() : 0;
  const auto service =
      cost.get_base + static_cast<sim::SimTime>(cost.get_ns_per_byte *
                                                static_cast<double>(
                                                    value_bytes));
  {
    trace::ScopedSpan span = trace::ScopedSpan::Adopt(
        trace::ChildOn(ctx, "kv.service", "kv.service", slot.node));
    co_await sim.Delay(static_cast<sim::SimTime>(
        static_cast<double>(service) * *slot.slow_factor));
  }
  slot.workers->Release();
  GaugeAdd(slot.inflight_gauge, -1);
  if (race->settled) {
    trace::Event(ctx, "abandoned");  // no one is listening
    co_return;
  }
  {
    trace::ScopedSpan leg(ctx, "net.reply", "net");
    co_await network.Transfer(slot.node, client,
                              cost.header_bytes + value_bytes);
  }
  race->Settle(std::move(result));
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
// replaced it, or the client stopped waiting on it. Mirrors RaceState's
// `settled`, generalized to per-item granularity by the outcomes' `resolved`
// flags.
bool Abandoned(const BatchCall& call, std::uint32_t attempt) {
  return call.attempt != attempt || call.settled;
}

// Ends the current attempt: the retry driver resumes and reads the verdicts.
void SettleAttempt(BatchCall& call) {
  call.settled = true;
  call.attempt_done.Set(sim::Done{});
}

// Cuts the current attempt off with `error`, unless it is already over.
void FailAttempt(BatchCall& call, std::uint32_t attempt, Status error) {
  if (Abandoned(call, attempt)) return;
  call.attempt_error = std::move(error);
  SettleAttempt(call);
}

sim::Task RunBatchDeadline(sim::Simulation& sim, BatchResult call,
                           std::uint32_t attempt, sim::SimTime deadline) {
  co_await sim.Delay(deadline);
  if (Abandoned(*call, attempt) || call->finished) co_return;
  // Every item committed: only the acknowledgement is outstanding, so let it
  // finish (same rule as the single-op watchdog after the commit point).
  for (const BatchCall::Outcome& outcome : call->outcomes) {
    if (!outcome.resolved) {
      FailAttempt(*call, attempt, status::DeadlineExceeded("op deadline"));
      co_return;
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
    FailAttempt(*call, attempt, status::DeadlineExceeded("request lost"));
    co_return;
  }
  {
    trace::ScopedSpan leg(ctx, "net.request", "net");
    co_await network.Transfer(client, slot.node, request_bytes);
  }
  if (*slot.down) {
    trace::Event(ctx, "server_down");
    co_await sim.Delay(cost.failure_timeout);
    FailAttempt(*call, attempt, status::Unavailable("server down"));
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
      // time — same order as the single-op GET path; harmless on
      // cancellation because reads have no commit point.
      result = slot.state->ApplyBatchItem(kind, item);
      applied = true;
      service = BatchItemService(cost, kind, result.value.StoredSize());
    } else {
      service = BatchItemService(cost, kind, item.value.StoredSize());
    }
    // Items after the first ride the message's already-paid dispatch
    // (syscall + wakeup + parse), which the per-op bases include; a batch of
    // one therefore costs exactly what the single-op path charges.
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
  SettleAttempt(*call);
}

}  // namespace

KvCluster::KvCluster(sim::Simulation& sim, net::Network& network,
                     std::vector<net::NodeId> server_nodes,
                     KvServerConfig server_config, KvOpCostModel cost_model,
                     MetricsRegistry* metrics, KvClientPolicy policy)
    : sim_(sim), network_(network), cost_(cost_model),
      server_config_(server_config), metrics_(metrics), policy_(policy),
      rng_(policy.rng_seed) {
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

template <typename T>
sim::Task KvCluster::RunWithRetry(
    std::uint32_t server,
    std::function<void(std::shared_ptr<RaceState<T>>, trace::TraceContext)>
        launch,
    sim::Promise<T> done, trace::TraceContext op_span) {
  trace::ScopedSpan op = trace::ScopedSpan::Adopt(op_span);
  auto& slot = servers_[server];
  RetryState retry(policy_.retry, sim_.now());
  T result = ErrorResult<T>(status::Unavailable("no attempt made"));
  std::uint32_t attempts = 0;
  while (true) {
    if (slot.left) {
      // The server drained out of the cluster for good: answer immediately
      // with a non-retryable verdict so callers fail over (or surface the
      // loss) instead of burning the failure timeout per attempt.
      trace::Event(op_span, "server_left");
      result = ErrorResult<T>(status::UnavailablePermanent("server left"));
      break;
    }
    const bool allowed = slot.breaker.AllowRequest(sim_.now());
    GaugeSet(slot.breaker_gauge,
             static_cast<std::int64_t>(slot.breaker.state()));
    if (!allowed) {
      ++stats_.breaker_fast_fails;
      ++slot.client_stats.breaker_fast_fails;
      if (metrics_ != nullptr) ++metrics_->Counter("kv.breaker_fast_fails");
      trace::Event(op_span, "breaker_fast_fail");
      result = ErrorResult<T>(status::Unavailable("circuit breaker open"));
    } else {
      auto race = std::make_shared<RaceState<T>>(sim_);
      auto attempt = race->promise.GetFuture();
      trace::TraceContext attempt_span =
          trace::Child(op_span, "kv.attempt", "kv.attempt");
      trace::Annotate(attempt_span, "attempt", std::to_string(++attempts));
      ++stats_.single_rpcs;
      ++slot.client_stats.single_ops;
      launch(race, attempt_span);
      if (policy_.op_deadline > 0) {
        RunDeadline<T>(sim_, race, policy_.op_deadline);
      }
      result = co_await attempt;
      const Status status = StatusOf(result);
      if (status.ok() || !IsRetryable(status.code())) {
        slot.breaker.RecordSuccess();
      } else {
        const std::uint64_t opens_before = slot.breaker.open_transitions();
        slot.breaker.RecordFailure(sim_.now());
        if (slot.breaker.open_transitions() != opens_before) {
          ++stats_.breaker_opens;
          ++slot.client_stats.breaker_opens;
          if (metrics_ != nullptr) ++metrics_->Counter("kv.breaker_opens");
        }
        if (status.code() == ErrorCode::kDeadlineExceeded) {
          ++stats_.deadline_exceeded;
          ++slot.client_stats.deadline_exceeded;
          if (metrics_ != nullptr) ++metrics_->Counter("kv.deadline_exceeded");
        }
      }
      GaugeSet(slot.breaker_gauge,
               static_cast<std::int64_t>(slot.breaker.state()));
    }
    const Status status = StatusOf(result);
    if (status.ok() || !IsRetryable(status.code())) break;
    const RetryState::Backoff backoff = retry.NextBackoff(rng_, sim_.now());
    if (!backoff.allowed) break;
    ++stats_.retries;
    ++slot.client_stats.retries;
    if (metrics_ != nullptr) ++metrics_->Counter("kv.retries");
    {
      trace::ScopedSpan wait(op_span, "backoff", "retry");
      co_await sim_.Delay(backoff.nanos);
    }
  }
  done.Set(std::move(result));
}

sim::Task KvCluster::RunBatchWithRetry(std::uint32_t server,
                                       net::NodeId client, BatchResult call,
                                       sim::Promise<BatchResult> done,
                                       trace::TraceContext op_span) {
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
      trace::Event(op_span, "server_left");
      fail_unresolved(status::UnavailablePermanent("server left"));
      break;
    }
    const bool allowed = slot.breaker.AllowRequest(sim_.now());
    GaugeSet(slot.breaker_gauge,
             static_cast<std::int64_t>(slot.breaker.state()));
    if (!allowed) {
      ++stats_.breaker_fast_fails;
      ++slot.client_stats.breaker_fast_fails;
      if (metrics_ != nullptr) ++metrics_->Counter("kv.breaker_fast_fails");
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
      trace::TraceContext attempt_span =
          trace::Child(op_span, "kv.batch.attempt", "kv.attempt");
      trace::Annotate(attempt_span, "attempt", std::to_string(attempt));
      trace::Annotate(attempt_span, "items", std::to_string(unresolved));
      ++stats_.batch_rpcs;
      stats_.batch_items += unresolved;
      ++slot.client_stats.batches;
      slot.client_stats.batched_items += unresolved;
      if (metrics_ != nullptr) {
        metrics_->Histogram("kv.batch.size").Record(unresolved);
      }
      RunBatchAttempt(sim_, network_, AccessOf(slot), client, cost_, call,
                      attempt, attempt_span);
      if (policy_.op_deadline > 0) {
        RunBatchDeadline(sim_, call, attempt, policy_.op_deadline);
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
          ++stats_.breaker_opens;
          ++slot.client_stats.breaker_opens;
          if (metrics_ != nullptr) ++metrics_->Counter("kv.breaker_opens");
        }
        if (call->attempt_error.code() == ErrorCode::kDeadlineExceeded) {
          ++stats_.deadline_exceeded;
          ++slot.client_stats.deadline_exceeded;
          if (metrics_ != nullptr) ++metrics_->Counter("kv.deadline_exceeded");
        }
      }
      GaugeSet(slot.breaker_gauge,
               static_cast<std::int64_t>(slot.breaker.state()));
    }
    if (unresolved == 0) break;
    const RetryState::Backoff backoff = retry.NextBackoff(rng_, sim_.now());
    if (!backoff.allowed) break;  // unresolved outcomes keep their error
    ++stats_.retries;
    ++slot.client_stats.retries;
    if (metrics_ != nullptr) ++metrics_->Counter("kv.retries");
    {
      trace::ScopedSpan wait(op_span, "backoff", "retry");
      co_await sim_.Delay(backoff.nanos);
    }
  }
  done.Set(std::move(call));
}

sim::Future<Status> KvCluster::Mutate(net::NodeId client, std::uint32_t server,
                                      std::uint64_t request_bytes,
                                      sim::SimTime service,
                                      std::function<Status()> apply,
                                      const char* metric,
                                      trace::TraceContext trace) {
  auto& slot = servers_[server];
  sim::Promise<Status> done(sim_);
  auto future = done.GetFuture();
  trace::TraceContext op_span = trace::Child(trace, metric, "kv");
  trace::Annotate(op_span, "server", std::to_string(server));
  trace::Annotate(op_span, "bytes", std::to_string(request_bytes));
  // The apply closure is shared across attempts but invoked at most once per
  // operation: every retryable failure happens before the commit point.
  auto shared_apply =
      std::make_shared<std::function<Status()>>(std::move(apply));
  const ServerSlotAccess access = AccessOf(slot);
  RunWithRetry<Status>(
      server,
      [this, access, client, request_bytes, service,
       shared_apply](std::shared_ptr<RaceState<Status>> race,
                     trace::TraceContext attempt_span) {
        RunMutationAttempt(sim_, network_, access, client, request_bytes,
                           service, shared_apply, std::move(race),
                           cost_.header_bytes, cost_.failure_timeout,
                           attempt_span);
      },
      std::move(done), op_span);
  if (metrics_ != nullptr) {
    RecordKvLatency(future, &sim_, &metrics_->Histogram(metric), sim_.now(),
                    KvTagOf(op_span, client, server));
  }
  return future;
}

sim::Future<Status> KvCluster::Set(net::NodeId client, std::uint32_t server,
                                   std::string key, Bytes value,
                                   trace::TraceContext trace) {
  auto* state = servers_[server].state.get();
  const std::uint64_t request =
      cost_.header_bytes + key.size() + value.StoredSize();
  const sim::SimTime service =
      ServiceTime(cost_.set_base, cost_.set_ns_per_byte, value.StoredSize());
  return Mutate(client, server, request, service,
                [state, key = std::move(key),
                 value = std::move(value)]() mutable {
                  return state->Set(key, std::move(value));
                },
                "kv.set", trace);
}

sim::Future<Status> KvCluster::Add(net::NodeId client, std::uint32_t server,
                                   std::string key, Bytes value,
                                   trace::TraceContext trace) {
  auto* state = servers_[server].state.get();
  const std::uint64_t request =
      cost_.header_bytes + key.size() + value.StoredSize();
  const sim::SimTime service =
      ServiceTime(cost_.set_base, cost_.set_ns_per_byte, value.StoredSize());
  return Mutate(client, server, request, service,
                [state, key = std::move(key),
                 value = std::move(value)]() mutable {
                  return state->Add(key, std::move(value));
                },
                "kv.add", trace);
}

sim::Future<Status> KvCluster::Append(net::NodeId client, std::uint32_t server,
                                      std::string key, Bytes suffix,
                                      trace::TraceContext trace) {
  auto* state = servers_[server].state.get();
  const std::uint64_t request =
      cost_.header_bytes + key.size() + suffix.StoredSize();
  const sim::SimTime service = ServiceTime(
      cost_.append_base, cost_.append_ns_per_byte, suffix.StoredSize());
  return Mutate(client, server, request, service,
                [state, key = std::move(key),
                 suffix = std::move(suffix)]() mutable {
                  return state->Append(key, suffix);
                },
                "kv.append", trace);
}

sim::Future<Status> KvCluster::Delete(net::NodeId client, std::uint32_t server,
                                      std::string key,
                                      trace::TraceContext trace) {
  auto* state = servers_[server].state.get();
  const std::uint64_t request = cost_.header_bytes + key.size();
  return Mutate(client, server, request, cost_.delete_base,
                [state, key = std::move(key)] { return state->Delete(key); },
                "kv.delete", trace);
}

sim::Future<Result<Bytes>> KvCluster::Get(net::NodeId client,
                                          std::uint32_t server,
                                          std::string key,
                                          trace::TraceContext trace) {
  auto& slot = servers_[server];
  sim::Promise<Result<Bytes>> done(sim_);
  auto future = done.GetFuture();
  const std::uint64_t request = cost_.header_bytes + key.size();
  trace::TraceContext op_span = trace::Child(trace, "kv.get", "kv");
  trace::Annotate(op_span, "server", std::to_string(server));
  auto* state = slot.state.get();
  const ServerSlotAccess access = AccessOf(slot);
  auto shared_key = std::make_shared<std::string>(std::move(key));
  RunWithRetry<Result<Bytes>>(
      server,
      [this, access, client, request, state,
       shared_key](std::shared_ptr<RaceState<Result<Bytes>>> race,
                   trace::TraceContext attempt_span) {
        RunGetAttempt(sim_, network_, access, client, request, cost_, state,
                      *shared_key, std::move(race), attempt_span);
      },
      std::move(done), op_span);
  if (metrics_ != nullptr) {
    RecordKvLatency(future, &sim_, &metrics_->Histogram("kv.get"), sim_.now(),
                    KvTagOf(op_span, client, server));
  }
  return future;
}

sim::Future<BatchResult> KvCluster::Batch(net::NodeId client,
                                          std::uint32_t server, BatchKind kind,
                                          std::vector<BatchItem> items,
                                          trace::TraceContext trace) {
  sim::Promise<BatchResult> done(sim_);
  auto future = done.GetFuture();
  const std::size_t count = items.size();
  auto call = std::allocate_shared<BatchCall>(
      sim::detail::PoolAllocator<BatchCall>{}, kind, std::move(items));
  if (count == 0) {
    done.Set(std::move(call));
    return future;
  }
  trace::TraceContext op_span = trace::Child(trace, "kv.batch", "kv");
  trace::Annotate(op_span, "server", std::to_string(server));
  trace::Annotate(op_span, "kind", BatchKindName(kind));
  trace::Annotate(op_span, "items", std::to_string(count));
  RunBatchWithRetry(server, client, std::move(call), std::move(done),
                    op_span);
  if (metrics_ != nullptr) {
    const std::string metric = std::string("kv.batch.") + BatchKindName(kind);
    RecordKvLatency(future, &sim_, &metrics_->Histogram(metric), sim_.now(),
                    KvTagOf(op_span, client, server));
    const std::string op_metric = std::string("kv.") + BatchKindName(kind);
    RecordKvItemLatencies(future, &sim_, &metrics_->Histogram(op_metric),
                          count, sim_.now());
  }
  return future;
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
