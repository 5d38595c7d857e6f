#include "monitor/probes.h"

namespace memfs::monitor {

void AttachNetworkProbes(Monitor& monitor, const net::Network& network) {
  const net::NetworkConfig& config = network.config();
  const double scale =
      config.nic_bandwidth > 0
          ? 1.0 / static_cast<double>(config.nic_bandwidth)
          : 0.0;
  for (net::NodeId node = 0; node < config.nodes; ++node) {
    monitor.AddRateProbe(
        InstanceGaugeName("net.tx_util", node),
        [&network, node] {
          return static_cast<double>(network.bytes_sent(node));
        },
        scale);
    monitor.AddRateProbe(
        InstanceGaugeName("net.rx_util", node),
        [&network, node] {
          return static_cast<double>(network.bytes_received(node));
        },
        scale);
  }
  monitor.AddGaugeProbe("net.active_flows", [&network] {
    return static_cast<double>(network.active_flows());
  });
}

void AttachWriteP99Probe(Monitor& monitor, const MetricsRegistry& registry) {
  monitor.AddGaugeProbe("vfs.write.p99_ms", [&registry] {
    const auto& histograms = registry.all();
    const auto it = histograms.find("vfs.write");
    return it == histograms.end() ? 0.0
                                  : it->second.PercentileNanos(0.99) / 1e6;
  });
}

void AttachRunObservers(Monitor& monitor, MetricsRegistry& registry,
                        const net::Network& network) {
  monitor.WatchRegistry(&registry);
  monitor.HarvestExemplars(&registry);
  AttachNetworkProbes(monitor, network);
  AttachWriteP99Probe(monitor, registry);
}

}  // namespace memfs::monitor
