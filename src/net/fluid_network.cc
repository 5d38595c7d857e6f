#include "net/fluid_network.h"

#include <algorithm>
#include <cassert>
#include <cmath>
#include <limits>
#include <utility>

namespace memfs::net {

namespace {
// Flows with less than this many bytes left are considered delivered; covers
// the floating-point slack introduced by rounding completion times up to
// whole nanoseconds.
constexpr double kDoneEpsilonBytes = 1e-3;
}  // namespace

FluidNetwork::FluidNetwork(sim::Simulation& sim, NetworkConfig config)
    : sim_(sim), config_(config) {
  const std::size_t n = config_.nodes;
  capacity_.assign(3 * n + 1, 0.0);
  counts_.assign(3 * n + 1, 0);
  res_flows_.resize(3 * n + 1);
  dirty_stamp_.assign(3 * n + 1, 0);
  wire_free_.assign(3 * n + 1, 0);
  sent_.assign(n, 0);
  received_.assign(n, 0);
  for (std::size_t i = 0; i < n; ++i) {
    capacity_[EgressOf(static_cast<NodeId>(i))] =
        static_cast<double>(config_.nic_bandwidth);
    capacity_[IngressOf(static_cast<NodeId>(i))] =
        static_cast<double>(config_.nic_bandwidth);
    capacity_[LocalOf(static_cast<NodeId>(i))] =
        static_cast<double>(config_.local_bandwidth);
  }
  capacity_[Fabric()] = config_.fabric_bandwidth == 0
                            ? std::numeric_limits<double>::infinity()
                            : static_cast<double>(config_.fabric_bandwidth);
}

FluidNetwork::~FluidNetwork() = default;

sim::VoidFuture FluidNetwork::Transfer(NodeId src, NodeId dst,
                                       std::uint64_t bytes) {
  assert(src < config_.nodes && dst < config_.nodes);
  sim::VoidPromise promise(sim_);
  auto future = promise.GetFuture();

  ++stats_.transfers;
  sent_[src] += bytes;
  received_[dst] += bytes;
  total_bytes_ += bytes;

  const bool local = src == dst;
  sim::SimTime latency =
      local ? config_.local_latency : config_.remote_latency;
  if (!link_faults_.empty()) {
    const auto fault = link_faults_.find(LinkKey(src, dst));
    if (fault != link_faults_.end()) latency += fault->second.extra_latency;
  }

  if (bytes == 0) {
    sim_.Schedule(latency, [promise]() mutable { promise.Set(sim::Done{}); });
    return future;
  }
  if (bytes <= kPacketBytes) {
    SendPacket(src, dst, bytes, latency, std::move(promise));
    return future;
  }

  // The flow is built in its slot up front; only {slot, id} travel through
  // the event queue. It enters the fluid stage after its one-way latency, so
  // small transfers are latency-dominated, as the paper observes for 1 KB
  // files.
  const std::uint64_t id = next_flow_id_++;
  const SlotId slot = AllocSlot();
  Flow& flow = flows_[slot];
  flow.src = src;
  flow.dst = dst;
  flow.state = FlowState::kStaged;
  flow.remaining = static_cast<double>(bytes);
  flow.id = id;
  flow.promise = std::move(promise);
  flow.nres = Route(src, dst, flow.res);
  sim_.Schedule(latency, [this, slot, id] { Activate(slot, id); });
  return future;
}

std::uint8_t FluidNetwork::Route(NodeId src, NodeId dst,
                                 ResourceId* res) const {
  if (src == dst) {
    res[0] = LocalOf(src);
    return 1;
  }
  res[0] = EgressOf(src);
  res[1] = IngressOf(dst);
  if (config_.fabric_bandwidth == 0) return 2;
  res[2] = Fabric();
  return 3;
}

void FluidNetwork::SendPacket(NodeId src, NodeId dst, std::uint64_t bytes,
                              sim::SimTime latency, sim::VoidPromise promise) {
  ++stats_.packets;
  ResourceId res[kMaxResources];
  const std::uint8_t nres = Route(src, dst, res);
  // FIFO behind the packets already queued on each resource; on the wire at
  // the share fair queueing leaves one packet beside the bulk flows there.
  sim::SimTime start = sim_.now() + latency;
  double wire_ns = 0.0;
  for (std::uint8_t i = 0; i < nres; ++i) {
    const ResourceId r = res[i];
    start = std::max(start, wire_free_[r]);
    wire_ns = std::max(wire_ns, static_cast<double>(bytes) *
                                    static_cast<double>(counts_[r] + 1) *
                                    static_cast<double>(units::kNanosPerSec) /
                                    capacity_[r]);
  }
  const sim::SimTime done =
      start + static_cast<sim::SimTime>(std::ceil(wire_ns));
  for (std::uint8_t i = 0; i < nres; ++i) wire_free_[res[i]] = done;
  ++packets_in_flight_;
  sim_.ScheduleAt(done, [this, promise = std::move(promise)]() mutable {
    --packets_in_flight_;
    promise.Set(sim::Done{});
  });
}

void FluidNetwork::SetLinkFault(NodeId src, NodeId dst, LinkFault fault) {
  link_faults_[LinkKey(src, dst)] = fault;
}

void FluidNetwork::ClearLinkFault(NodeId src, NodeId dst) {
  link_faults_.erase(LinkKey(src, dst));
}

bool FluidNetwork::DropMessage(NodeId src, NodeId dst) {
  if (link_faults_.empty()) return false;
  const auto fault = link_faults_.find(LinkKey(src, dst));
  if (fault == link_faults_.end() || fault->second.loss_prob <= 0.0) {
    return false;
  }
  // One deterministic draw per message on a lossy link only, so arming the
  // machinery does not perturb healthy runs.
  if (fault_rng_.NextDouble() >= fault->second.loss_prob) return false;
  ++dropped_;
  return true;
}

std::vector<FluidNetwork::FlowInfo> FluidNetwork::SnapshotFlows() const {
  std::vector<FlowInfo> out;
  out.reserve(finish_heap_.size());
  for (const FinishNode& node : finish_heap_) {
    const Flow& flow = flows_[node.slot];
    const double moved =
        flow.rate * units::ToSeconds(sim_.now() - flow.settled_at);
    out.push_back({flow.id, flow.src, flow.dst,
                   std::max(0.0, flow.remaining - moved), flow.rate});
  }
  std::sort(out.begin(), out.end(),
            [](const FlowInfo& a, const FlowInfo& b) { return a.id < b.id; });
  return out;
}

FluidNetwork::SlotId FluidNetwork::AllocSlot() {
  if (free_head_ != kNoSlot) {
    const SlotId slot = free_head_;
    free_head_ = flows_[slot].next_free;
    flows_[slot].next_free = kNoSlot;
    return slot;
  }
  flows_.emplace_back();
  return static_cast<SlotId>(flows_.size() - 1);
}

void FluidNetwork::FreeSlot(SlotId slot) {
  Flow& flow = flows_[slot];
  flow.state = FlowState::kFree;
  flow.id = 0;
  flow.nres = 0;
  flow.rate = 0.0;
  flow.promise = sim::VoidPromise();  // release the shared state eagerly
  flow.next_free = free_head_;
  free_head_ = slot;
}

void FluidNetwork::MarkDirty(ResourceId r) {
  if (dirty_stamp_[r] == dirty_cur_) return;
  dirty_stamp_[r] = dirty_cur_;
  dirty_.push_back(r);
}

void FluidNetwork::LinkFlow(SlotId slot) {
  Flow& flow = flows_[slot];
  for (std::uint8_t i = 0; i < flow.nres; ++i) {
    auto& list = res_flows_[flow.res[i]];
    flow.pos[i] = static_cast<std::uint32_t>(list.size());
    list.push_back(slot);
  }
}

void FluidNetwork::UnlinkFlow(SlotId slot) {
  Flow& flow = flows_[slot];
  for (std::uint8_t i = 0; i < flow.nres; ++i) {
    const ResourceId r = flow.res[i];
    auto& list = res_flows_[r];
    const std::uint32_t idx = flow.pos[i];
    const SlotId moved = list.back();
    list[idx] = moved;
    list.pop_back();
    if (moved != slot) {
      Flow& other = flows_[moved];
      for (std::uint8_t j = 0; j < other.nres; ++j) {
        if (other.res[j] == r) {
          other.pos[j] = idx;
          break;
        }
      }
    }
  }
}

void FluidNetwork::RunReallocate() {
  ++stats_.reallocations;
  Reallocate();
  dirty_.clear();
  ++dirty_cur_;
}

void FluidNetwork::Activate(SlotId slot, std::uint64_t id) {
  Flow& flow = flows_[slot];
  assert(flow.state == FlowState::kStaged && flow.id == id);
  flow.state = FlowState::kActive;
  flow.settled_at = sim_.now();
  // Enters the heap with no finish time yet; Reallocate gives it a rate.
  flow.heap_pos = static_cast<std::uint32_t>(finish_heap_.size());
  finish_heap_.push_back({kNever, id, slot});
  for (std::uint8_t i = 0; i < flow.nres; ++i) {
    ++counts_[flow.res[i]];
    MarkDirty(flow.res[i]);
  }
  LinkFlow(slot);
  RunReallocate();
  ScheduleNextCompletion();
}

void FluidNetwork::set_rate(Flow& flow, double rate) {
  assert(rate > 0.0 && "active flow with zero rate");
  ++stats_.rate_recomputes;
  if (rate == flow.rate) return;
  const sim::SimTime now = sim_.now();
  if (now != flow.settled_at) {
    flow.remaining = std::max(
        0.0, flow.remaining -
                 flow.rate * units::ToSeconds(now - flow.settled_at));
    flow.settled_at = now;
  }
  flow.rate = rate;
  // Rounded up to a whole nanosecond; Due() absorbs the overshoot.
  finish_heap_[flow.heap_pos].finish =
      now + static_cast<sim::SimTime>(std::ceil(
                flow.remaining / rate *
                static_cast<double>(units::kNanosPerSec)));
  HeapFix(flow.heap_pos);
}

void FluidNetwork::HeapPlace(std::uint32_t pos, const FinishNode& node) {
  finish_heap_[pos] = node;
  flows_[node.slot].heap_pos = pos;
}

void FluidNetwork::HeapFix(std::uint32_t pos) {
  const FinishNode node = finish_heap_[pos];
  const sim::Key128 key = KeyOf(node);
  // Sift up: parent of i is (i-1)/4.
  const std::uint32_t start = pos;
  while (pos > 0) {
    const std::uint32_t parent = (pos - 1) >> 2;
    if (key >= KeyOf(finish_heap_[parent])) break;
    HeapPlace(pos, finish_heap_[parent]);
    pos = parent;
  }
  if (pos == start) {
    // Sift down: children of i are 4i+1 .. 4i+4; a full set of four is
    // reduced by a branch-free tournament.
    const auto size = static_cast<std::uint32_t>(finish_heap_.size());
    while (true) {
      const std::uint32_t first = 4 * pos + 1;
      if (first >= size) break;
      std::uint32_t best;
      if (first + 4 <= size) {
        const FinishNode* c = &finish_heap_[first];
        const std::uint32_t a = first + (KeyOf(c[1]) < KeyOf(c[0]));
        const std::uint32_t b = first + 2 + (KeyOf(c[3]) < KeyOf(c[2]));
        best = KeyOf(finish_heap_[b]) < KeyOf(finish_heap_[a]) ? b : a;
      } else {
        best = first;
        for (std::uint32_t c = first + 1; c < size; ++c) {
          if (KeyOf(finish_heap_[c]) < KeyOf(finish_heap_[best])) best = c;
        }
      }
      if (KeyOf(finish_heap_[best]) >= key) break;
      HeapPlace(pos, finish_heap_[best]);
      pos = best;
    }
  }
  HeapPlace(pos, node);
}

void FluidNetwork::HeapPopTop() {
  const FinishNode last = finish_heap_.back();
  finish_heap_.pop_back();
  if (finish_heap_.empty()) return;
  HeapPlace(0, last);
  HeapFix(0);
}

bool FluidNetwork::Due(const Flow& flow, sim::SimTime now) const {
  if (finish_heap_[flow.heap_pos].finish <= now) return true;
  // One nanosecond of slack at the current rate: the finish time is rounded
  // up to a whole nanosecond, so a due flow can retain up to one
  // nanosecond's worth of bytes.
  const double left =
      flow.remaining - flow.rate * units::ToSeconds(now - flow.settled_at);
  return left <= std::max(kDoneEpsilonBytes, flow.rate * 1.5e-9);
}

void FluidNetwork::FinishDueFlows() {
  const sim::SimTime now = sim_.now();
  due_scratch_.clear();
  while (!finish_heap_.empty()) {
    const FinishNode top = finish_heap_.front();
    if (!Due(flows_[top.slot], now)) break;
    due_scratch_.emplace_back(top.id, top.slot);
    HeapPopTop();
  }
  // Flows completing together are fulfilled in flow-id order, which decides
  // the order their waiters resume in.
  std::sort(due_scratch_.begin(), due_scratch_.end());
  for (const auto& [id, slot] : due_scratch_) {
    Flow& flow = flows_[slot];
    for (std::uint8_t i = 0; i < flow.nres; ++i) {
      --counts_[flow.res[i]];
      MarkDirty(flow.res[i]);
    }
    UnlinkFlow(slot);
    flow.promise.Set(sim::Done{});
    FreeSlot(slot);
  }
}

void FluidNetwork::ScheduleNextCompletion() {
  if (finish_heap_.empty()) return;
  const sim::SimTime target = finish_heap_.front().finish;
  assert(target != kNever && "active flow without a rate");
  // The pending event already fires at the earliest finish.
  if (target == completion_at_) return;
  // A pending event for another instant is superseded: it leaves the queue.
  // One already queued for the current instant cannot be cancelled; it runs
  // and its stale generation makes it a no-op.
  if (completion_at_ != kNever) sim_.Cancel(completion_event_);
  completion_at_ = target;
  const std::uint64_t generation = ++completion_generation_;
  completion_event_ = sim_.ScheduleAt(target, [this, generation] {
    if (generation != completion_generation_) return;  // superseded
    completion_at_ = kNever;
    FinishDueFlows();
    RunReallocate();
    ScheduleNextCompletion();
  });
}

// ---------------------------------------------------------------------------
// Fair share

void FairShareNetwork::RecomputeFlow(Flow& flow) {
  double rate = std::numeric_limits<double>::infinity();
  for (std::uint8_t i = 0; i < flow.nres; ++i) {
    rate = std::min(rate, share_[flow.res[i]]);
  }
  set_rate(flow, rate);
}

void FairShareNetwork::ReallocateExact() {
  for (Flow& flow : flows_) {
    if (flow.state != FlowState::kActive) continue;
    double rate = std::numeric_limits<double>::infinity();
    for (std::uint8_t i = 0; i < flow.nres; ++i) {
      rate = std::min(rate, ResourceCapacity(flow.res[i]) /
                                static_cast<double>(
                                    ResourceFlowCount(flow.res[i])));
    }
    set_rate(flow, rate);
  }
}

void FairShareNetwork::Reallocate() {
  // Refreshed in both arms, so flipping to the incremental arm mid-run finds
  // every share current.
  if (share_.size() < res_flows_.size()) share_.resize(res_flows_.size());
  for (ResourceId r : DirtyResources()) {
    share_[r] = ResourceCapacity(r) /
                static_cast<double>(ResourceFlowCount(r));
  }
  if (exact_solver()) {
    ReallocateExact();
    return;
  }
  // A flow's rate reads only its own resources' capacity and count, so only
  // flows crossing a resource whose count changed can move; everyone else
  // would recompute the same min() from bit-identical inputs.
  ++visit_cur_;
  for (ResourceId r : DirtyResources()) {
    for (SlotId slot : res_flows_[r]) {
      Flow& flow = flows_[slot];
      if (flow.visit == visit_cur_) continue;
      flow.visit = visit_cur_;
      RecomputeFlow(flow);
    }
  }
}

// ---------------------------------------------------------------------------
// Water-filling

void WaterfillNetwork::ReallocateExact() {
  // Progressive filling: repeatedly find the resource whose remaining
  // capacity divided by its unfixed flows is smallest, freeze those flows at
  // that fair share, charge the frozen rates to their other resources, and
  // continue until every flow is frozen. This is the original from-scratch
  // solver, kept verbatim as the reference oracle for the incremental arm.
  if (bulk_flows() == 0) return;

  struct ResState {
    double residual = 0.0;
    std::uint32_t unfixed = 0;
  };
  std::unordered_map<ResourceId, ResState> res;
  fill_.assign(flows_.size(), -1.0);  // -1 marks "not yet frozen"
  for (const Flow& flow : flows_) {
    if (flow.state != FlowState::kActive) continue;
    for (std::uint8_t i = 0; i < flow.nres; ++i) {
      auto& state = res[flow.res[i]];
      state.residual = ResourceCapacity(flow.res[i]);
      ++state.unfixed;
    }
  }

  std::size_t remaining_flows = bulk_flows();
  while (remaining_flows > 0) {
    double min_share = std::numeric_limits<double>::infinity();
    for (const auto& [r, state] : res) {
      if (state.unfixed == 0) continue;
      min_share = std::min(min_share,
                           state.residual / static_cast<double>(state.unfixed));
    }
    assert(std::isfinite(min_share));

    // Freeze every unfixed flow that crosses a bottleneck resource (one whose
    // fair share equals the minimum, within tolerance).
    const double threshold = min_share * (1.0 + 1e-12) + 1e-9;
    std::size_t frozen_this_round = 0;
    for (SlotId slot = 0; slot < flows_.size(); ++slot) {
      const Flow& flow = flows_[slot];
      if (flow.state != FlowState::kActive || fill_[slot] >= 0.0) continue;
      bool bottlenecked = false;
      for (std::uint8_t i = 0; i < flow.nres; ++i) {
        const auto& state = res[flow.res[i]];
        if (state.residual / static_cast<double>(state.unfixed) <= threshold) {
          bottlenecked = true;
          break;
        }
      }
      if (!bottlenecked) continue;
      fill_[slot] = min_share;
      ++frozen_this_round;
      for (std::uint8_t i = 0; i < flow.nres; ++i) {
        auto& state = res[flow.res[i]];
        state.residual = std::max(0.0, state.residual - min_share);
        --state.unfixed;
      }
    }
    assert(frozen_this_round > 0 && "water-filling failed to make progress");
    remaining_flows -= frozen_this_round;
  }
  for (SlotId slot = 0; slot < flows_.size(); ++slot) {
    if (flows_[slot].state == FlowState::kActive) {
      set_rate(flows_[slot], fill_[slot]);
    }
  }
}

void WaterfillNetwork::SolveComponent(const std::vector<SlotId>& flow_slots) {
  comp_res_.clear();
  ++res_cur_;
  if (fill_.size() < flows_.size()) fill_.resize(flows_.size());
  for (SlotId slot : flow_slots) {
    const Flow& flow = flows_[slot];
    fill_[slot] = -1.0;  // -1 marks "not yet frozen"
    for (std::uint8_t i = 0; i < flow.nres; ++i) {
      const ResourceId r = flow.res[i];
      if (res_stamp_[r] != res_cur_) {
        res_stamp_[r] = res_cur_;
        residual_[r] = ResourceCapacity(r);
        unfixed_[r] = 0;
        comp_res_.push_back(r);
      }
      ++unfixed_[r];
    }
  }

  std::size_t remaining_flows = flow_slots.size();
  while (remaining_flows > 0) {
    double min_share = std::numeric_limits<double>::infinity();
    for (ResourceId r : comp_res_) {
      if (unfixed_[r] == 0) continue;
      min_share = std::min(min_share,
                           residual_[r] / static_cast<double>(unfixed_[r]));
    }
    assert(std::isfinite(min_share));

    const double threshold = min_share * (1.0 + 1e-12) + 1e-9;
    std::size_t frozen_this_round = 0;
    for (SlotId slot : flow_slots) {
      const Flow& flow = flows_[slot];
      if (fill_[slot] >= 0.0) continue;
      bool bottlenecked = false;
      for (std::uint8_t i = 0; i < flow.nres; ++i) {
        const ResourceId r = flow.res[i];
        if (residual_[r] / static_cast<double>(unfixed_[r]) <= threshold) {
          bottlenecked = true;
          break;
        }
      }
      if (!bottlenecked) continue;
      fill_[slot] = min_share;
      ++frozen_this_round;
      for (std::uint8_t i = 0; i < flow.nres; ++i) {
        const ResourceId r = flow.res[i];
        residual_[r] = std::max(0.0, residual_[r] - min_share);
        --unfixed_[r];
      }
    }
    assert(frozen_this_round > 0 && "water-filling failed to make progress");
    remaining_flows -= frozen_this_round;
  }
  for (SlotId slot : flow_slots) set_rate(flows_[slot], fill_[slot]);
}

void WaterfillNetwork::Reallocate() {
  if (exact_solver()) {
    ReallocateExact();
    return;
  }
  if (res_stamp_.size() < res_flows_.size()) {
    res_stamp_.resize(res_flows_.size(), 0);
    residual_.resize(res_flows_.size(), 0.0);
    unfixed_.resize(res_flows_.size(), 0);
  }
  // Rate changes cascade only along shared resources, so re-solving the
  // connected component(s) of the flow/resource graph reachable from the
  // dirty resources reproduces the global solution for every flow that can
  // have moved; disjoint components are independent up to the freeze
  // threshold's sub-nano coupling.
  comp_flows_.clear();
  bfs_stack_.clear();
  ++res_cur_;
  for (ResourceId r : DirtyResources()) {
    if (res_stamp_[r] == res_cur_) continue;
    res_stamp_[r] = res_cur_;
    bfs_stack_.push_back(r);
  }
  ++visit_cur_;
  while (!bfs_stack_.empty()) {
    const ResourceId r = bfs_stack_.back();
    bfs_stack_.pop_back();
    for (SlotId slot : res_flows_[r]) {
      Flow& flow = flows_[slot];
      if (flow.visit == visit_cur_) continue;
      flow.visit = visit_cur_;
      comp_flows_.push_back(slot);
      for (std::uint8_t i = 0; i < flow.nres; ++i) {
        const ResourceId r2 = flow.res[i];
        if (res_stamp_[r2] != res_cur_) {
          res_stamp_[r2] = res_cur_;
          bfs_stack_.push_back(r2);
        }
      }
    }
  }
  if (!comp_flows_.empty()) SolveComponent(comp_flows_);
}

// ---------------------------------------------------------------------------
// Topology presets

NetworkConfig Das4Ipoib(std::uint32_t nodes) {
  NetworkConfig config;
  config.nodes = nodes;
  config.nic_bandwidth = units::GB(1);      // measured IPoIB goodput (§4)
  config.local_bandwidth = units::GB(10);   // STREAM-class memory bandwidth
  config.remote_latency = units::Micros(60);
  config.local_latency = units::Micros(10);
  return config;
}

NetworkConfig Das4GbE(std::uint32_t nodes) {
  NetworkConfig config;
  config.nodes = nodes;
  config.nic_bandwidth = units::MB(125);    // 1 Gb/s Ethernet
  config.local_bandwidth = units::GB(10);
  config.remote_latency = units::Micros(100);
  config.local_latency = units::Micros(10);
  return config;
}

NetworkConfig RdmaInfiniband(std::uint32_t nodes) {
  NetworkConfig config;
  config.nodes = nodes;
  config.nic_bandwidth = units::GB(5);      // QDR verbs goodput
  config.local_bandwidth = units::GB(10);   // STREAM memory bandwidth
  config.remote_latency = units::Micros(3); // kernel-bypass RTT/2
  config.local_latency = units::Micros(1);
  return config;
}

NetworkConfig Ec2TenGbE(std::uint32_t nodes) {
  NetworkConfig config;
  config.nodes = nodes;
  config.nic_bandwidth = units::GB(1);      // iperf-measured on c3.8xlarge
  config.local_bandwidth = units::GB(10);
  config.remote_latency = units::Micros(120);  // virtualized stack
  config.local_latency = units::Micros(15);
  return config;
}

}  // namespace memfs::net
