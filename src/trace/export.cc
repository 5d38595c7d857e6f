#include "trace/export.h"

#include <algorithm>
#include <map>
#include <ostream>
#include <unordered_map>
#include <vector>

#include "common/strfmt.h"

namespace memfs::trace {

namespace {

// Exact microseconds: integer division keeps full nanosecond resolution
// without float formatting surprises.
void EmitMicros(std::ostream& os, sim::SimTime nanos) {
  const sim::SimTime micros = nanos / 1000;
  const sim::SimTime rem = nanos % 1000;
  os << micros << '.' << static_cast<char>('0' + rem / 100)
     << static_cast<char>('0' + rem / 10 % 10)
     << static_cast<char>('0' + rem % 10);
}

// One lane of properly nested spans: a stack of open-interval end times.
using Lane = std::vector<sim::SimTime>;

// Pops intervals that ended at or before `start`, then reports whether a
// span [start, end) keeps the lane's stack discipline.
bool LaneAccepts(Lane& lane, sim::SimTime start, sim::SimTime end) {
  while (!lane.empty() && lane.back() <= start) lane.pop_back();
  return lane.empty() || end <= lane.back();
}

}  // namespace

void WriteChromeTrace(std::ostream& os, const std::deque<SpanRecord>& spans) {
  std::vector<const SpanRecord*> ordered;
  ordered.reserve(spans.size());
  for (const SpanRecord& span : spans) ordered.push_back(&span);
  std::sort(ordered.begin(), ordered.end(),
            [](const SpanRecord* a, const SpanRecord* b) {
              if (a->node != b->node) return a->node < b->node;
              if (a->start != b->start) return a->start < b->start;
              if (a->end != b->end) return a->end > b->end;
              return a->span_id < b->span_id;
            });

  // Greedy lane (tid) assignment per node.
  std::unordered_map<SpanId, std::uint32_t> tid_of;
  tid_of.reserve(ordered.size());
  std::map<std::uint32_t, std::vector<Lane>> lanes_by_node;
  for (const SpanRecord* span : ordered) {
    std::vector<Lane>& lanes = lanes_by_node[span->node];
    std::uint32_t tid = 0;
    while (tid < lanes.size() &&
           !LaneAccepts(lanes[tid], span->start, span->end)) {
      ++tid;
    }
    if (tid == lanes.size()) lanes.emplace_back();
    lanes[tid].push_back(span->end);
    tid_of.emplace(span->span_id, tid);
  }

  os << "{\"traceEvents\":[";
  bool first = true;
  auto separator = [&] {
    if (!first) os << ",";
    first = false;
    os << "\n";
  };

  for (const auto& [node, lanes] : lanes_by_node) {
    separator();
    os << R"({"ph":"M","name":"process_name","pid":)" << node
       << R"(,"args":{"name":"node )" << node << R"("}})";
  }

  for (const SpanRecord* span : ordered) {
    const std::uint32_t tid = tid_of[span->span_id];
    separator();
    os << R"({"ph":"X","name":)";
    strfmt::WriteJsonString(os, span->name);
    os << R"(,"cat":)";
    strfmt::WriteJsonString(os, span->category);
    os << R"(,"ts":)";
    EmitMicros(os, span->start);
    os << R"(,"dur":)";
    EmitMicros(os, span->end - span->start);
    os << R"(,"pid":)" << span->node << R"(,"tid":)" << tid
       << R"(,"args":{"trace":)" << span->trace_id << R"(,"span":)"
       << span->span_id << R"(,"parent":)" << span->parent_id;
    for (const auto& [key, value] : span->args) {
      os << ',';
      strfmt::WriteJsonString(os, key);
      os << ':';
      strfmt::WriteJsonString(os, value);
    }
    os << "}}";
    for (const SpanEvent& event : span->events) {
      separator();
      os << R"({"ph":"i","s":"t","name":)";
      strfmt::WriteJsonString(os, event.name);
      os << R"(,"cat":)";
      strfmt::WriteJsonString(os, span->category);
      os << R"(,"ts":)";
      EmitMicros(os, event.when);
      os << R"(,"pid":)" << span->node << R"(,"tid":)" << tid
         << R"(,"args":{"span":)" << span->span_id << "}}";
    }
  }
  os << "\n]}\n";
}

}  // namespace memfs::trace
