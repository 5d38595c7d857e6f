// Tests for the fluid network models: single-flow timing, NIC sharing,
// incast, loopback, fabric caps, and fair-share vs water-filling semantics.
#include <cmath>
#include <vector>

#include <gtest/gtest.h>

#include "common/units.h"
#include "net/fluid_network.h"
#include "net/network.h"
#include "sim/sync.h"
#include "sim/task.h"

namespace memfs::net {
namespace {

using sim::SimTime;
using units::GB;
using units::MB;
using units::Micros;
using units::Millis;
using units::Seconds;

NetworkConfig TestConfig(std::uint32_t nodes) {
  NetworkConfig config;
  config.nodes = nodes;
  config.nic_bandwidth = GB(1);
  config.local_bandwidth = GB(10);
  config.remote_latency = Micros(50);
  config.local_latency = Micros(5);
  return config;
}

// Runs a transfer to completion and returns its duration.
SimTime TimeTransfer(Network& network, sim::Simulation& sim, NodeId src,
                     NodeId dst, std::uint64_t bytes) {
  const SimTime start = sim.now();
  auto future = network.Transfer(src, dst, bytes);
  sim.Run();
  EXPECT_TRUE(future.ready());
  return sim.now() - start;
}

template <typename NetworkT>
class FluidNetworkTest : public ::testing::Test {};

using NetworkTypes = ::testing::Types<FairShareNetwork, WaterfillNetwork>;
TYPED_TEST_SUITE(FluidNetworkTest, NetworkTypes);

TYPED_TEST(FluidNetworkTest, SingleFlowTakesLatencyPlusSize) {
  sim::Simulation sim;
  TypeParam network(sim, TestConfig(2));
  // 1 MB at 1 GB/s = 1 ms, plus 50 us latency.
  const SimTime took = TimeTransfer(network, sim, 0, 1, MB(1));
  EXPECT_NEAR(double(took), double(Micros(50) + Millis(1)), double(Micros(1)));
}

TYPED_TEST(FluidNetworkTest, ZeroByteTransferIsPureLatency) {
  sim::Simulation sim;
  TypeParam network(sim, TestConfig(2));
  EXPECT_EQ(TimeTransfer(network, sim, 0, 1, 0), Micros(50));
}

TYPED_TEST(FluidNetworkTest, LoopbackUsesLocalPath) {
  sim::Simulation sim;
  TypeParam network(sim, TestConfig(2));
  // 10 MB at 10 GB/s = 1 ms, plus 5 us local latency.
  const SimTime took = TimeTransfer(network, sim, 1, 1, MB(10));
  EXPECT_NEAR(double(took), double(Micros(5) + Millis(1)), double(Micros(1)));
}

TYPED_TEST(FluidNetworkTest, TwoFlowsShareEgress) {
  sim::Simulation sim;
  TypeParam network(sim, TestConfig(3));
  // Node 0 sends 1 MB to nodes 1 and 2 simultaneously: both bottleneck on
  // node 0's egress, each gets 500 MB/s -> 2 ms + latency.
  auto f1 = network.Transfer(0, 1, MB(1));
  auto f2 = network.Transfer(0, 2, MB(1));
  sim.Run();
  EXPECT_TRUE(f1.ready() && f2.ready());
  EXPECT_NEAR(double(sim.now()), double(Micros(50) + Millis(2)),
              double(Micros(5)));
}

TYPED_TEST(FluidNetworkTest, IncastSharesIngress) {
  sim::Simulation sim;
  TypeParam network(sim, TestConfig(5));
  // Nodes 1..4 each send 1 MB to node 0: ingress of node 0 splits 4 ways.
  for (NodeId n = 1; n <= 4; ++n) (void)network.Transfer(n, 0, MB(1));
  sim.Run();
  EXPECT_NEAR(double(sim.now()), double(Micros(50) + Millis(4)),
              double(Micros(10)));
}

TYPED_TEST(FluidNetworkTest, DisjointPairsDoNotInterfere) {
  sim::Simulation sim;
  TypeParam network(sim, TestConfig(4));
  // 0->1 and 2->3 share nothing on a full-bisection fabric.
  auto f1 = network.Transfer(0, 1, MB(1));
  auto f2 = network.Transfer(2, 3, MB(1));
  sim.Run();
  EXPECT_NEAR(double(sim.now()), double(Micros(50) + Millis(1)),
              double(Micros(5)));
  EXPECT_TRUE(f1.ready() && f2.ready());
}

TYPED_TEST(FluidNetworkTest, FabricCapLimitsAggregate) {
  sim::Simulation sim;
  auto config = TestConfig(4);
  config.fabric_bandwidth = GB(1);  // blocking core: 1 GB/s total
  TypeParam network(sim, config);
  // Two disjoint pairs now share the 1 GB/s core: 500 MB/s each -> 2 ms.
  (void)network.Transfer(0, 1, MB(1));
  (void)network.Transfer(2, 3, MB(1));
  sim.Run();
  EXPECT_NEAR(double(sim.now()), double(Micros(50) + Millis(2)),
              double(Micros(10)));
}

TYPED_TEST(FluidNetworkTest, StaggeredFlowsRecomputeRates) {
  sim::Simulation sim;
  TypeParam network(sim, TestConfig(3));
  // Flow A starts alone; halfway through, flow B joins on the same egress.
  auto fa = network.Transfer(0, 1, MB(1));
  bool second_done = false;
  sim.Schedule(Micros(550), [&] {
    auto fb = network.Transfer(0, 2, MB(1));
    (void)fb;
    second_done = true;
  });
  sim.Run();
  EXPECT_TRUE(fa.ready());
  EXPECT_TRUE(second_done);
  // A: 50us latency + 500us alone (0.5 MB) + ~1ms shared (0.5 MB at 500MB/s)
  // -> finishes ~1.55ms. B finishes after its remaining bytes run alone.
  EXPECT_GT(sim.now(), Millis(1));
  EXPECT_LT(sim.now(), Millis(3));
}

TYPED_TEST(FluidNetworkTest, AccountingTracksBytes) {
  sim::Simulation sim;
  TypeParam network(sim, TestConfig(3));
  (void)network.Transfer(0, 1, MB(2));
  (void)network.Transfer(2, 1, MB(3));
  (void)network.Transfer(1, 1, MB(5));  // loopback counts both directions
  sim.Run();
  EXPECT_EQ(network.bytes_sent(0), MB(2));
  EXPECT_EQ(network.bytes_sent(2), MB(3));
  EXPECT_EQ(network.bytes_received(1), MB(10));
  EXPECT_EQ(network.bytes_sent(1), MB(5));
  EXPECT_EQ(network.total_bytes(), MB(10));
  EXPECT_EQ(network.active_flows(), 0u);
}

TYPED_TEST(FluidNetworkTest, ManySmallTransfersAllComplete) {
  sim::Simulation sim;
  TypeParam network(sim, TestConfig(8));
  std::vector<sim::VoidFuture> futures;
  for (int i = 0; i < 200; ++i) {
    futures.push_back(network.Transfer(i % 8, (i + 3) % 8, 1024 + i));
  }
  sim.Run();
  for (const auto& f : futures) EXPECT_TRUE(f.ready());
  EXPECT_EQ(network.active_flows(), 0u);
}

TYPED_TEST(FluidNetworkTest, SimultaneousCompletionsFulfilInFlowIdOrder) {
  sim::Simulation sim;
  TypeParam network(sim, TestConfig(8));
  // Four equal transfers on disjoint pairs finish in the same nanosecond.
  // Waiters attach in reverse flow order; they must still resume in flow-id
  // order, because that is the order the flows are fulfilled in.
  std::vector<sim::VoidFuture> futures;
  for (NodeId pair = 0; pair < 4; ++pair) {
    futures.push_back(network.Transfer(2 * pair, 2 * pair + 1, MB(1)));
  }
  std::vector<int> order;
  std::vector<SimTime> done_at;
  for (int i = 3; i >= 0; --i) {
    [](sim::VoidFuture f, int id, sim::Simulation& s, std::vector<int>& log,
       std::vector<SimTime>& at) -> sim::Task {
      co_await f;
      log.push_back(id);
      at.push_back(s.now());
    }(futures[i], i, sim, order, done_at);
  }
  sim.Run();
  EXPECT_EQ(order, (std::vector<int>{0, 1, 2, 3}));
  ASSERT_EQ(done_at.size(), 4u);
  EXPECT_EQ(done_at.front(), done_at.back());
}

TYPED_TEST(FluidNetworkTest, ArrivalKeepingEarliestFinishSchedulesNoEvent) {
  sim::Simulation sim;
  TypeParam network(sim, TestConfig(4));
  // A (1 MB) and, 100 us later, B (10 MB) on a disjoint pair: B's arrival
  // leaves A's finish the earliest, so it must not schedule a completion
  // event.
  (void)network.Transfer(0, 1, MB(1));
  sim.Schedule(Micros(100), [&] { (void)network.Transfer(2, 3, MB(10)); });
  sim.Run();
  EXPECT_EQ(network.active_flows(), 0u);
  // The timer event, two activations, two completions.
  EXPECT_EQ(sim.events_processed(), 5u);
}

TYPED_TEST(FluidNetworkTest, ArrivalPullingEarliestFinishEarlierCancelsOld) {
  sim::Simulation sim;
  TypeParam network(sim, TestConfig(4));
  // A (10 MB) and, 100 us later, B (1 MB) on a disjoint pair: B's finish
  // comes first, so A's pending completion is superseded and must leave the
  // queue; A's completion is scheduled afresh once B is done.
  auto a = network.Transfer(0, 1, MB(10));
  sim.Schedule(Micros(100), [&] { (void)network.Transfer(2, 3, MB(1)); });
  SimTime a_done = 0;
  [](sim::VoidFuture f, sim::Simulation& s, SimTime& out) -> sim::Task {
    co_await f;
    out = s.now();
  }(a, sim, a_done);
  sim.Run();
  EXPECT_EQ(network.active_flows(), 0u);
  // The timer event, two activations, two completions and A's waiter.
  EXPECT_EQ(sim.events_processed(), 6u);
  EXPECT_NEAR(double(a_done), double(Micros(50) + Millis(10)),
              double(Micros(1)));
  EXPECT_EQ(sim.now(), a_done);
}

// Records the instant `f` is fulfilled into `out`.
sim::Task RecordDone(sim::VoidFuture f, sim::Simulation& s, SimTime& out) {
  co_await f;
  out = s.now();
}

TYPED_TEST(FluidNetworkTest, PacketBesideBulkFlowsTakesOneShare) {
  constexpr std::uint64_t kBytes = TypeParam::kPacketBytes;
  for (std::uint32_t n = 0; n <= 3; ++n) {
    SCOPED_TRACE(n);
    sim::Simulation sim;
    TypeParam network(sim, TestConfig(6));
    // n bulk flows leave node 0; the packet to node 5 crosses its egress.
    for (NodeId dst = 1; dst <= n; ++dst) {
      (void)network.Transfer(0, dst, MB(10));
    }
    SimTime done = 0;
    sim.Schedule(Micros(100), [&] {
      RecordDone(network.Transfer(0, 5, kBytes), sim, done);
    });
    sim.Run();
    // latency + ceil(bytes * (n + 1) / C): 1 GB/s is one byte a nanosecond.
    EXPECT_EQ(done, Micros(150) + kBytes * (n + 1));
  }
}

TYPED_TEST(FluidNetworkTest, PacketsIntoOneIngressEndFifoOneWireTimeApart) {
  constexpr std::uint64_t kBytes = 256;
  sim::Simulation sim;
  TypeParam network(sim, TestConfig(5));
  // Nodes 1..4 each send a packet to node 0 at once: they queue on node 0's
  // ingress in send order instead of sharing it.
  std::vector<SimTime> done(4, 0);
  for (NodeId n = 1; n <= 4; ++n) {
    RecordDone(network.Transfer(n, 0, kBytes), sim, done[n - 1]);
  }
  EXPECT_EQ(network.active_flows(), 4u);
  sim.Run();
  for (std::uint32_t i = 0; i < 4; ++i) {
    EXPECT_EQ(done[i], Micros(50) + kBytes * (i + 1)) << "packet " << i;
  }
  EXPECT_EQ(network.active_flows(), 0u);
}

TYPED_TEST(FluidNetworkTest, PacketLeavesBulkFlowUntouched) {
  sim::Simulation sim;
  TypeParam network(sim, TestConfig(2));
  SimTime bulk_done = 0;
  RecordDone(network.Transfer(0, 1, MB(1)), sim, bulk_done);
  // A packet on the bulk flow's own NICs while the flow is on the wire.
  sim.Schedule(Micros(100), [&] {
    (void)network.Transfer(0, 1, 256);
    EXPECT_EQ(network.active_flows(), 2u);
    const auto flows = network.SnapshotFlows();  // bulk flows only
    ASSERT_EQ(flows.size(), 1u);
    EXPECT_EQ(flows[0].rate, double(GB(1)));
  });
  sim.Run();
  EXPECT_EQ(bulk_done, Micros(50) + Millis(1));
  EXPECT_EQ(network.active_flows(), 0u);
  // The bulk activation, the timer, the packet's one event, the bulk
  // completion (never rescheduled) and its waiter.
  EXPECT_EQ(sim.events_processed(), 5u);
  EXPECT_EQ(network.stats().reallocations, 2u);
  EXPECT_EQ(network.stats().rate_recomputes, 1u);
}

TYPED_TEST(FluidNetworkTest, PacketSizeBoundarySplitsThePaths) {
  constexpr std::uint64_t kBytes = TypeParam::kPacketBytes;
  sim::Simulation sim;
  TypeParam network(sim, TestConfig(4));
  (void)network.Transfer(0, 1, kBytes);
  (void)network.Transfer(2, 3, kBytes + 1);
  EXPECT_EQ(network.stats().transfers, 2u);
  EXPECT_EQ(network.stats().packets, 1u);
  // Past the latency: the packet is on the wire but not a flow; the larger
  // transfer is the one bulk flow.
  sim.RunUntil(Micros(50) + 100);
  EXPECT_EQ(network.active_flows(), 2u);
  const auto flows = network.SnapshotFlows();
  ASSERT_EQ(flows.size(), 1u);
  EXPECT_EQ(flows[0].src, 2u);
  sim.Run();
  EXPECT_EQ(network.active_flows(), 0u);
  EXPECT_EQ(network.total_bytes(), 2 * kBytes + 1);
}

TYPED_TEST(FluidNetworkTest, LoopbackPacketsSerializeOnTheLocalPath) {
  sim::Simulation sim;
  TypeParam network(sim, TestConfig(2));
  SimTime first = 0;
  SimTime second = 0;
  RecordDone(network.Transfer(1, 1, 512), sim, first);
  RecordDone(network.Transfer(1, 1, 512), sim, second);
  sim.Run();
  // 512 B at 10 GB/s is 51.2 ns, rounded up to 52, behind 5 us latency.
  EXPECT_EQ(first, Micros(5) + 52);
  EXPECT_EQ(second, Micros(5) + 104);
}

TYPED_TEST(FluidNetworkTest, LinkFaultLatencyDelaysAPacket) {
  sim::Simulation sim;
  TypeParam network(sim, TestConfig(2));
  network.SetLinkFault(0, 1, LinkFault{0.0, Micros(30)});
  SimTime faulted = 0;
  SimTime healthy = 0;
  RecordDone(network.Transfer(0, 1, 100), sim, faulted);
  RecordDone(network.Transfer(1, 0, 100), sim, healthy);
  sim.Run();
  EXPECT_EQ(faulted, Micros(80) + 100);
  EXPECT_EQ(healthy, Micros(50) + 100);
}

// Water-filling redistributes capacity that fair-share leaves unused: flows
// A(0->1) and B(0->2) share node 0's egress; B additionally competes with
// C(3->2) and D(4->2) for node 2's ingress and is stuck at 1/3 of line rate.
// Fair-share still charges A half of the egress (500 MB/s); max-min hands
// B's unused egress share to A (2/3 of line rate).
TEST(WaterfillVsFairShare, WaterfillRedistributes) {
  auto run = [](auto& network, sim::Simulation& sim) {
    auto fa = network.Transfer(0, 1, MB(10));
    auto fb = network.Transfer(0, 2, MB(10));
    auto fc = network.Transfer(3, 2, MB(10));
    auto fd = network.Transfer(4, 2, MB(10));
    (void)fb;
    (void)fc;
    (void)fd;
    SimTime a_done = 0;
    [](sim::VoidFuture f, sim::Simulation& s, SimTime& out) -> sim::Task {
      co_await f;
      out = s.now();
    }(fa, sim, a_done);
    sim.Run();
    return a_done;
  };

  sim::Simulation sim_fair;
  FairShareNetwork fair(sim_fair, TestConfig(5));
  const SimTime fair_a = run(fair, sim_fair);

  sim::Simulation sim_water;
  WaterfillNetwork water(sim_water, TestConfig(5));
  const SimTime water_a = run(water, sim_water);

  // Fair-share: A gets egress/2 = 500 MB/s -> 20 ms.
  EXPECT_NEAR(double(fair_a), double(Micros(50) + Millis(20)),
              double(Millis(1)));
  // Water-filling: A gets ~667 MB/s -> 15 ms.
  EXPECT_NEAR(double(water_a), double(Micros(50) + Millis(15)),
              double(Millis(1)));
}

TEST(TopologyPresetTest, PresetsMatchPaperNumbers) {
  const auto ipoib = Das4Ipoib(64);
  EXPECT_EQ(ipoib.nodes, 64u);
  EXPECT_EQ(ipoib.nic_bandwidth, GB(1));
  const auto gbe = Das4GbE(64);
  EXPECT_EQ(gbe.nic_bandwidth, MB(125));
  const auto ec2 = Ec2TenGbE(32);
  EXPECT_EQ(ec2.nic_bandwidth, GB(1));
  EXPECT_GT(ec2.remote_latency, ipoib.remote_latency);
}

// A request/response call over the network: the request leg, the server's
// service time, then the response leg.
sim::VoidFuture Call(sim::Simulation& sim, Network& network, NodeId client,
                     NodeId server, std::uint64_t request_bytes,
                     SimTime service, std::uint64_t response_bytes) {
  co_await network.Transfer(client, server, request_bytes);
  co_await sim.Delay(service);
  co_await network.Transfer(server, client, response_bytes);
  co_return sim::Done{};
}

TEST(RpcTest, CallPaysBothLegsAndServiceTime) {
  sim::Simulation sim;
  FairShareNetwork network(sim, TestConfig(2));
  auto future = Call(sim, network, 0, 1, /*request_bytes=*/0,
                     /*service=*/Micros(100), /*response_bytes=*/MB(1));
  sim.Run();
  EXPECT_TRUE(future.ready());
  // req latency 50us + service 100us + response 50us + 1ms payload.
  EXPECT_NEAR(double(sim.now()), double(Micros(200) + Millis(1)),
              double(Micros(5)));
}

TEST(DeterminismTest, NetworkRunsAreBitIdentical) {
  auto run = [] {
    sim::Simulation sim;
    FairShareNetwork network(sim, TestConfig(6));
    for (int i = 0; i < 100; ++i) {
      (void)network.Transfer(i % 6, (i * 7 + 1) % 6, 10000 + i * 37);
    }
    sim.Run();
    return std::pair{sim.now(), sim.events_processed()};
  };
  EXPECT_EQ(run(), run());
}

}  // namespace
}  // namespace memfs::net
