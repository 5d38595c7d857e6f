// Fluid-flow network implementations.
//
// Shared machinery (FluidNetwork): flow lifecycle, latency staging, progress
// bookkeeping, and a single rescheduled next-completion event — so the event
// queue never accumulates stale per-flow completions. When the earliest
// finish moves, the superseded completion event is cancelled (it leaves the
// queue unrun); only one already queued for the current instant still runs,
// as a no-op. Subclasses only decide how capacity is split among concurrent
// flows (Reallocate).
//
// Flows live in an id-ordered slot vector (intrusive free list, no per-flow
// heap traffic after warm-up) and every resource keeps the slot list of the
// flows crossing it. Arrivals and departures mark their resources dirty, and
// the default solvers recompute only the flows reachable from the dirty set:
// for fair-share that is exactly the flows on a dirty resource (their rate
// formula reads nothing else), for water-filling it is the connected
// component of the flow/resource sharing graph (rate changes cascade no
// further). The original from-scratch solvers are kept as a reference oracle
// behind SetExactReallocate — the incremental/exact property test flips it
// and drives both arms in lockstep.
//
// Progress is kept in absolute time: each active flow records its remaining
// bytes as of the instant its rate last changed, and the resulting finish
// time sits in an indexed min-heap keyed (finish_ns, flow id). Nothing walks
// the active set per event — an arrival or completion touches only the flows
// whose rate the solver changed, plus O(log n) heap fix-ups. Flows that
// complete in the same event are fulfilled in flow-id order.
//
// Packets are not flows. A transfer of 1 to kPacketBytes bytes (a kv request
// or reply header with its key) never enters the flow slots, the resource
// lists or the finish heap. At send time it takes start = max(now + one-way
// latency, wire_free_[r] of each resource r it crosses), holds those
// resources FIFO until done = start + ceil(bytes / min over r of
// capacity_r / (bulk flows on r + 1)) ns, the one share fair queueing leaves
// it among the bulk flows, and one event at `done` fulfils it. Bulk flows are
// never re-rated for a packet: packets sent beside bulk flows carry under
// 0.02% of the bulk bytes in fig03a and fig04b, while re-rating every flow
// on both NICs for each message was the bulk of the solver's work (DESIGN.md
// §11, "Packets are not flows"). Zero-byte transfers stay pure latency.
//
// Resources are indexed as: [0, N) egress NICs, [N, 2N) ingress NICs,
// [2N, 3N) node-local paths, 3N the optional core fabric.
#pragma once

#include <cstdint>
#include <unordered_map>
#include <vector>

#include "common/rng.h"
#include "net/network.h"
#include "sim/future.h"
#include "sim/simulation.h"

namespace memfs::net {

class FluidNetwork : public Network {
 public:
  // The largest transfer sent as a packet rather than a fluid flow.
  static constexpr std::uint64_t kPacketBytes = 512;

  // Solver work, counted since construction (tooling: the scale profile
  // reports them beside its event counts).
  struct SolverStats {
    std::uint64_t transfers = 0;        // Transfer calls, every size
    std::uint64_t packets = 0;          // of those, sent as packets
    std::uint64_t reallocations = 0;    // solver passes over the dirty set
    std::uint64_t rate_recomputes = 0;  // flow rates computed by a pass
  };

  FluidNetwork(sim::Simulation& sim, NetworkConfig config);
  ~FluidNetwork() override;

  sim::VoidFuture Transfer(NodeId src, NodeId dst,
                           std::uint64_t bytes) override;

  const NetworkConfig& config() const override { return config_; }
  std::uint64_t bytes_sent(NodeId node) const override {
    return sent_[node];
  }
  std::uint64_t bytes_received(NodeId node) const override {
    return received_[node];
  }
  std::uint64_t total_bytes() const override { return total_bytes_; }
  std::size_t active_flows() const override {
    return finish_heap_.size() + packets_in_flight_;
  }
  const SolverStats& stats() const { return stats_; }

  // Fault injection: per-link loss and latency spikes (see network.h).
  void SetLinkFault(NodeId src, NodeId dst, LinkFault fault) override;
  void ClearLinkFault(NodeId src, NodeId dst) override;
  bool DropMessage(NodeId src, NodeId dst) override;
  std::uint64_t dropped_messages() const override { return dropped_; }

  // Switches between the incremental solver and the exact reference oracle
  // at runtime (tests flip this mid-run; both arms maintain the same flow
  // bookkeeping, so flipping is always safe).
  void SetExactReallocate(bool exact) { exact_ = exact; }
  bool exact_reallocate() const { return exact_; }

  // Diagnostic snapshot of the in-progress bulk flows (packets are not
  // listed), sorted by id (stable across solver arms; the property test
  // compares these), with remaining bytes as of now.
  struct FlowInfo {
    std::uint64_t id = 0;
    NodeId src = 0;
    NodeId dst = 0;
    double remaining = 0.0;
    double rate = 0.0;
  };
  std::vector<FlowInfo> SnapshotFlows() const;

 protected:
  using ResourceId = std::uint32_t;
  using SlotId = std::uint32_t;
  static constexpr SlotId kNoSlot = 0xffffffffu;
  // Finish time of a flow that has no rate yet.
  static constexpr sim::SimTime kNever = ~sim::SimTime{0};
  // A flow crosses at most egress + ingress + fabric.
  static constexpr std::uint32_t kMaxResources = 3;

  enum class FlowState : std::uint8_t { kFree, kStaged, kActive };

  struct Flow {
    NodeId src = 0;
    NodeId dst = 0;
    FlowState state = FlowState::kFree;
    std::uint8_t nres = 0;
    ResourceId res[kMaxResources] = {0, 0, 0};
    // Index of this slot inside res_flows_[res[i]] (swap-remove fix-up).
    std::uint32_t pos[kMaxResources] = {0, 0, 0};
    // Progress, settled only when the rate changes: `remaining` bytes were
    // left at `settled_at`, and the flow has moved at `rate` bytes/sec since.
    double remaining = 0.0;
    double rate = 0.0;
    sim::SimTime settled_at = 0;
    std::uint64_t id = 0;    // 0 when the slot is free
    std::uint64_t visit = 0; // solver traversal stamp
    // Index of this slot in finish_heap_ while active (heap fix-up).
    std::uint32_t heap_pos = 0;
    SlotId next_free = kNoSlot;
    sim::VoidPromise promise;
  };

  ResourceId EgressOf(NodeId n) const { return n; }
  ResourceId IngressOf(NodeId n) const { return config_.nodes + n; }
  ResourceId LocalOf(NodeId n) const { return 2 * config_.nodes + n; }
  ResourceId Fabric() const { return 3 * config_.nodes; }

  // Recomputes rates for the flows affected by the dirty resource set (or
  // for every flow, in exact-oracle mode) through set_rate(). Invoked after
  // each flow arrival/completion.
  virtual void Reallocate() = 0;

  double ResourceCapacity(ResourceId r) const { return capacity_[r]; }
  // Active bulk flows (active_flows() less the packets in flight).
  std::size_t bulk_flows() const { return finish_heap_.size(); }
  std::uint32_t ResourceFlowCount(ResourceId r) const { return counts_[r]; }

  // Resources whose flow membership changed since the last Reallocate
  // (deduplicated, in mark order).
  const std::vector<ResourceId>& DirtyResources() const { return dirty_; }
  bool exact_solver() const { return exact_; }

  // The one way a solver changes an active flow's rate (> 0). A no-op when
  // the rate is unchanged; otherwise settles the flow's progress at the old
  // rate up to now and moves its finish time in the heap.
  void set_rate(Flow& flow, double rate);

  // Slot storage, resource membership lists, and traversal stamps — the
  // solver implementations walk these directly.
  std::vector<Flow> flows_;
  std::vector<std::vector<SlotId>> res_flows_;
  std::uint64_t visit_cur_ = 0;

  sim::Simulation& sim_;
  const NetworkConfig config_;

 private:
  // One finish-heap entry; the key (finish, id) is unique per flow.
  struct FinishNode {
    sim::SimTime finish;
    std::uint64_t id;
    SlotId slot;
  };

  // Fills `res` with the resources a src -> dst transfer crosses; returns
  // how many.
  std::uint8_t Route(NodeId src, NodeId dst, ResourceId* res) const;
  void SendPacket(NodeId src, NodeId dst, std::uint64_t bytes,
                  sim::SimTime latency, sim::VoidPromise promise);
  void Activate(SlotId slot, std::uint64_t id);
  bool Due(const Flow& flow, sim::SimTime now) const;
  void FinishDueFlows();
  void ScheduleNextCompletion();
  void RunReallocate();
  SlotId AllocSlot();
  void FreeSlot(SlotId slot);
  void MarkDirty(ResourceId r);
  void LinkFlow(SlotId slot);
  void UnlinkFlow(SlotId slot);
  void HeapPlace(std::uint32_t pos, const FinishNode& node);
  void HeapFix(std::uint32_t pos);
  void HeapPopTop();

  static sim::Key128 KeyOf(const FinishNode& node) {
    return sim::PackKey(node.finish, node.id);
  }
  static std::uint64_t LinkKey(NodeId src, NodeId dst) {
    return (static_cast<std::uint64_t>(src) << 32) | dst;
  }

  std::vector<double> capacity_;       // per resource, bytes/sec
  std::vector<std::uint32_t> counts_;  // active flows per resource
  std::vector<std::uint64_t> sent_;
  std::vector<std::uint64_t> received_;
  // Per resource: when the last packet queued on it leaves the wire.
  std::vector<sim::SimTime> wire_free_;
  std::size_t packets_in_flight_ = 0;
  SolverStats stats_;
  // 4-ary min-heap over every active flow, keyed (finish, id); a flow's
  // entry is finish_heap_[flow.heap_pos].
  std::vector<FinishNode> finish_heap_;
  std::vector<ResourceId> dirty_;  // deduplicated via dirty_stamp_
  std::vector<std::uint64_t> dirty_stamp_;
  std::uint64_t dirty_cur_ = 1;
  // Scratch for FinishDueFlows (reused): (id, slot) of the due flows.
  std::vector<std::pair<std::uint64_t, SlotId>> due_scratch_;
  SlotId free_head_ = kNoSlot;
  std::uint64_t total_bytes_ = 0;
  std::uint64_t next_flow_id_ = 1;
  // The pending completion event: its id (cancelled when superseded), its
  // target instant (kNever when none is pending) and generation (a
  // superseded event that could not be cancelled sees a stale generation and
  // does nothing).
  sim::EventId completion_event_;
  std::uint64_t completion_generation_ = 0;
  sim::SimTime completion_at_ = kNever;
  bool exact_ = false;

  std::unordered_map<std::uint64_t, LinkFault> link_faults_;
  Rng fault_rng_{0x4661756c747321ull};
  std::uint64_t dropped_ = 0;
};

// Each resource divides its capacity evenly among its flows; a flow's rate is
// the minimum share across its resources. Unclaimed capacity of flows that
// bottleneck elsewhere is not redistributed.
//
// The incremental arm recomputes exactly the flows on a dirty resource: a
// flow's rate reads only its own resources' capacity/count, so every other
// flow's min() would be recomputed from bit-identical inputs. Incremental and
// exact are therefore bitwise-equal here, and neither moves a flow whose
// rate did not change.
class FairShareNetwork final : public FluidNetwork {
 public:
  using FluidNetwork::FluidNetwork;

 protected:
  void Reallocate() override;

 private:
  void ReallocateExact();
  void RecomputeFlow(Flow& flow);

  // Per resource: capacity / count, refreshed for every dirty resource
  // before a reallocation (a clean resource's count, hence its share, has
  // not changed). The incremental arm's rates read it; the exact oracle
  // divides afresh.
  std::vector<double> share_;
};

// Exact max-min fairness: iteratively saturates the most-contended resource
// and redistributes the rest (progressive filling / water-filling).
//
// The incremental arm re-solves the connected component(s) of the
// flow/resource graph reachable from the dirty resources; disjoint
// components share no capacity, so their rates are independent up to the
// freeze threshold (≤ 1e-9 B/s of cross-component coupling — far below the
// property-test tolerance).
class WaterfillNetwork final : public FluidNetwork {
 public:
  using FluidNetwork::FluidNetwork;

 protected:
  void Reallocate() override;

 private:
  void ReallocateExact();
  // Progressive filling restricted to `flow_slots` (assumed to be the union
  // of whole components: every active flow on every resource any of them
  // crosses is in the list).
  void SolveComponent(const std::vector<SlotId>& flow_slots);

  // Per SlotId: the share being solved, -1 while the flow is not yet frozen.
  // Kept apart from the flows' rates so a half-solved component never
  // reaches set_rate and the finish heap.
  std::vector<double> fill_;
  // Scratch reused across solves (indexed by ResourceId, stamped).
  std::vector<double> residual_;
  std::vector<std::uint32_t> unfixed_;
  std::vector<std::uint64_t> res_stamp_;
  std::uint64_t res_cur_ = 0;
  std::vector<ResourceId> comp_res_;
  std::vector<SlotId> comp_flows_;
  std::vector<ResourceId> bfs_stack_;
};

}  // namespace memfs::net
