// Critical-path extraction over a finished trace.
//
// Answers "where did the makespan go?": starting from a trace's root span
// (a workflow, or a single VFS op), the extractor walks backwards from the
// root's end, always descending into the child span whose completion gated
// that instant, and attributes every segment of the root window to the
// innermost span covering it. The result is a time-ordered chain of
// segments — the longest causal chain through the span tree — plus per-layer
// (category) and per-name aggregates. By construction the walk tiles the
// whole root window, so attribution covers 100% of the makespan: time no
// child accounts for is self-time of the enclosing span (scheduling gaps
// attribute to the workflow span, request assembly to the vfs span, ...).
//
// This is the analysis the striping argument needs: it splits one number
// (makespan) into compute vs. stripe transfer vs. retry/backoff vs.
// queueing, deterministically, with no re-run required.
#pragma once

#include <deque>
#include <iosfwd>
#include <string>
#include <vector>

#include "trace/trace.h"

namespace memfs::trace {

// One contiguous stretch of the critical path, attributed to the innermost
// span covering it.
struct PathSegment {
  sim::SimTime begin = 0;
  sim::SimTime end = 0;
  SpanId span_id = 0;
  std::string name;
  std::string category;
  // Node of the covering span (server-side spans are attributed to the
  // server node via ChildOn, so per-node aggregation splits client from
  // server time).
  std::uint32_t node = 0;

  sim::SimTime nanos() const { return end - begin; }
};

// Aggregated share of the critical path (per category or per span name).
struct PathShare {
  std::string label;
  sim::SimTime nanos = 0;
  std::uint64_t segments = 0;
};

// Aggregated share of the critical path spent on one node.
struct NodePathShare {
  std::uint32_t node = 0;
  sim::SimTime nanos = 0;
  std::uint64_t segments = 0;
};

struct CriticalPath {
  // False when the trace has no finished root span (still open, or dropped
  // from the ring); everything else is meaningless in that case.
  bool found = false;
  sim::SimTime window_start = 0;
  sim::SimTime window_end = 0;
  sim::SimTime attributed = 0;
  std::vector<PathSegment> segments;   // time order, begin ascending
  std::vector<PathShare> by_category;  // descending time
  std::vector<PathShare> by_name;      // descending time
  std::vector<NodePathShare> by_node;  // descending time, node ascending tie

  sim::SimTime window() const { return window_end - window_start; }
  double AttributedFraction() const {
    return window() == 0 ? 1.0
                         : static_cast<double>(attributed) /
                               static_cast<double>(window());
  }
};

// Extracts the path through the whole trace (root = the span with no
// parent), or — with a nonzero `root_span` — through the subtree rooted at
// that span (the incident flight recorder runs this over one exemplar
// operation inside a larger workflow trace). An unknown/unfinished root
// yields `found == false`.
CriticalPath ExtractCriticalPath(const std::deque<SpanRecord>& spans,
                                 TraceId trace, SpanId root_span = 0);

inline CriticalPath ExtractCriticalPath(const Tracer& tracer, TraceId trace,
                                        SpanId root_span = 0) {
  return ExtractCriticalPath(tracer.finished(), trace, root_span);
}

// Renders the per-layer attribution table and the top-N span names (as
// memfs_run prints for a workflow). CSV mode emits just the per-layer rows.
void PrintCriticalPath(std::ostream& os, const CriticalPath& path,
                       bool csv = false, std::size_t top_names = 12);

}  // namespace memfs::trace
