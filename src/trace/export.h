// Chrome trace_event JSON export for finished trace spans.
//
// The output loads in about:tracing and Perfetto. Mapping:
//  * pid  = simulated node (named "node N" via process_name metadata), so
//    the viewer groups spans by machine;
//  * tid  = a synthetic lane. Complete ("X") events on one tid must form a
//    stack (properly nested or disjoint), but traced work overlaps freely —
//    parallel stripe fetches, replica fan-out — so the exporter runs a
//    deterministic greedy lane assignment per node: spans sorted by
//    (start asc, end desc) land in the first lane whose open stack can
//    contain them, spilling to a new lane otherwise. Parents sort before
//    their children, so a request chain stays in one lane;
//  * span events become thread-scoped instants ("i");
//  * ids and annotations ride in each event's "args".
//
// Only finished spans are exported; timestamps are simulated nanoseconds
// printed as exact microseconds (ns/1000 with three decimals), so export is
// bit-stable across same-seed runs. This is the one trace format: memfs_run
// writes it as trace.json and the determinism_gate ctest compares it.
#pragma once

#include <deque>
#include <iosfwd>

#include "trace/trace.h"

namespace memfs::trace {

void WriteChromeTrace(std::ostream& os, const std::deque<SpanRecord>& spans);

inline void WriteChromeTrace(std::ostream& os, const Tracer& tracer) {
  WriteChromeTrace(os, tracer.finished());
}

}  // namespace memfs::trace
