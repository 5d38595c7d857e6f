// Standard pull probes: layers that have no MetricsRegistry, and derived
// gauges the default SLO rules watch.
//
// The network keeps cumulative per-node byte counters but no registry; these
// helpers expose them to the monitor as per-window utilization series
// ("net.tx_util/N", "net.rx_util/N" — fraction of NIC capacity used over the
// window) plus the cluster-wide count of transfers on the wire, bulk flows
// and packets alike ("net.active_flows"). Probes read counters only, so
// attaching them never perturbs the run.
#pragma once

#include "common/metrics.h"
#include "monitor/monitor.h"
#include "net/network.h"

namespace memfs::monitor {

// Attaches per-node tx/rx utilization rate probes and an active-flow gauge
// probe. `network` must outlive `monitor`.
void AttachNetworkProbes(Monitor& monitor, const net::Network& network);

// Attaches "vfs.write.p99_ms": the cumulative p99 of the registry's
// "vfs.write" histogram in milliseconds (0 until the first write). Looks the
// histogram up without creating it, so the probe stays read-only.
// `registry` must outlive `monitor`.
void AttachWriteP99Probe(Monitor& monitor, const MetricsRegistry& registry);

// The observer wiring of a whole-cluster run (the determinism gate's `all`
// column, memfs_run): scrape `registry` and harvest its exemplars, then the
// network and write-p99 probes, in that order. `registry` and `network`
// must outlive `monitor`.
void AttachRunObservers(Monitor& monitor, MetricsRegistry& registry,
                        const net::Network& network);

}  // namespace memfs::monitor
