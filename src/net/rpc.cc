#include "net/rpc.h"

#include "sim/task.h"

namespace memfs::net {

namespace {

sim::VoidFuture RunCall(sim::Simulation& sim, Network& network,
                        NodeId client, NodeId server, RpcOptions options) {
  co_await network.Transfer(client, server, options.request_bytes);
  if (options.server_time != 0) co_await sim.Delay(options.server_time);
  co_await network.Transfer(server, client, options.response_bytes);
  co_return sim::Done{};
}

}  // namespace

sim::VoidFuture Rpc::Call(NodeId client, NodeId server, RpcOptions options) {
  ++calls_issued_;
  return RunCall(sim_, network_, client, server, options);
}

}  // namespace memfs::net
