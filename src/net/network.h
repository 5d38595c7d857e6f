// Cluster network abstraction.
//
// The paper's evaluation runs on DAS4 (QDR InfiniBand over IP at ~1 GB/s and
// commodity 1 GbE) and on EC2 c3.8xlarge (10 GbE at ~1 GB/s measured). We
// model such fabrics as a fluid-flow network: every in-flight bulk transfer
// is a flow with an instantaneous rate determined by the capacities it
// shares — its sender's egress NIC, its receiver's ingress NIC, the
// node-local memory path for loopback transfers, and optionally a core
// fabric capacity (zero means full bisection, the premium-network case the
// paper targets).
//
// A transfer is one of two kinds. A bulk transfer (a stripe, a value) is a
// fluid flow as above. A message of at most a packet (a request or reply
// header and its key; fluid_network.h's kPacketBytes) is a packet instead: it
// queues FIFO behind earlier packets on the resources it crosses, takes the
// one share fair queueing leaves it beside the bulk flows there, and never
// changes a bulk flow's rate.
//
// Two allocators implement the Network interface (see fluid_network.h):
//  * FairShareNetwork — each resource splits its capacity evenly among its
//    flows; a flow gets the minimum of its resources' shares. Cheap and
//    monotone; captures NIC saturation and N-1 incast.
//  * WaterfillNetwork — exact global max-min fairness via water-filling;
//    redistributes capacity a bottlenecked flow cannot use.
// `paper_figures abl_network_model` quantifies the difference between them.
#pragma once

#include <cstdint>

#include "common/units.h"
#include "sim/future.h"
#include "sim/simulation.h"

namespace memfs::net {

using NodeId = std::uint32_t;

// Transient perturbation of one directed link (fault injection): requests on
// the link are lost with `loss_prob`, and surviving messages pay
// `extra_latency` on top of the configured one-way latency.
struct LinkFault {
  double loss_prob = 0.0;
  sim::SimTime extra_latency = 0;
};

struct NetworkConfig {
  std::uint32_t nodes = 1;
  // Per-NIC capacity, each direction (full duplex), bytes/second.
  std::uint64_t nic_bandwidth = units::GB(1);
  // Node-local path capacity for src == dst transfers (memory bandwidth; the
  // paper quotes ~10 GB/s STREAM on Cartesius-class nodes).
  std::uint64_t local_bandwidth = units::GB(10);
  // Aggregate core capacity; 0 = non-blocking (full bisection) fabric.
  std::uint64_t fabric_bandwidth = 0;
  // One-way latency for remote messages (stack + propagation).
  sim::SimTime remote_latency = units::Micros(60);
  // Latency of the loopback path.
  sim::SimTime local_latency = units::Micros(10);
};

class Network {
 public:
  virtual ~Network() = default;

  // Starts moving `bytes` from `src` to `dst`. The returned future is
  // fulfilled when the last byte arrives. Zero-byte transfers complete after
  // one latency. src == dst uses the node-local path.
  virtual sim::VoidFuture Transfer(NodeId src, NodeId dst,
                                   std::uint64_t bytes) = 0;

  virtual const NetworkConfig& config() const = 0;

  // Cumulative traffic accounting (loopback counts on both sides).
  virtual std::uint64_t bytes_sent(NodeId node) const = 0;
  virtual std::uint64_t bytes_received(NodeId node) const = 0;
  virtual std::uint64_t total_bytes() const = 0;

  // Number of transfers currently on the wire, bulk flows and packets alike
  // (diagnostics, tests); counted from activation for a flow and from send
  // for a packet.
  virtual std::size_t active_flows() const = 0;

  // --- Fault injection (optional; default implementation is a healthy
  // fabric). Faults are keyed by directed link, so an injector can degrade
  // exactly the paths touching one server.
  virtual void SetLinkFault(NodeId src, NodeId dst, LinkFault fault) {
    (void)src; (void)dst; (void)fault;
  }
  virtual void ClearLinkFault(NodeId src, NodeId dst) { (void)src; (void)dst; }

  // Decides — deterministically, via the network's seeded Rng — whether a
  // message sent now on src->dst is lost. Callers (the kv client) consult
  // this before Transfer: a dropped request never reaches the server and
  // surfaces as a client-side deadline. Draws randomness only on links with
  // an active fault, so healthy runs stay bit-identical with or without the
  // machinery.
  virtual bool DropMessage(NodeId src, NodeId dst) {
    (void)src; (void)dst;
    return false;
  }

  // Total messages reported lost by DropMessage (diagnostics).
  virtual std::uint64_t dropped_messages() const { return 0; }
};

// Topology presets matching the paper's three environments (§4).
NetworkConfig Das4Ipoib(std::uint32_t nodes);
NetworkConfig Das4GbE(std::uint32_t nodes);
NetworkConfig Ec2TenGbE(std::uint32_t nodes);

// Native-verbs InfiniBand (the paper's future-work transport, §5): kernel
// bypass removes most of the IPoIB stack latency and the goodput approaches
// the ConnectX-3 link rate, so the memory path starts to matter.
NetworkConfig RdmaInfiniband(std::uint32_t nodes);

}  // namespace memfs::net
