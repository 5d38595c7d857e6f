#include "diagnose/diagnose.h"

#include <cmath>
#include <cstdio>
#include <ostream>

#include "common/strfmt.h"
#include "common/units.h"

namespace memfs::diagnose {

namespace {

double Ms(sim::SimTime t) {
  return static_cast<double>(t) / static_cast<double>(units::kNanosPerMilli);
}

// Deterministic compact number formatting (matches the monitor's exports):
// integers print exactly, everything else as %.6g.
std::string FormatValue(double value) {
  if (std::floor(value) == value && std::fabs(value) < 9.007199254740992e15) {
    return std::to_string(static_cast<long long>(value));
  }
  char buffer[32];
  std::snprintf(buffer, sizeof(buffer), "%.6g", value);
  return buffer;
}

std::string FormatMs(sim::SimTime t) {
  char buffer[32];
  std::snprintf(buffer, sizeof(buffer), "%.3f", Ms(t));
  return buffer;
}

void WriteServerField(std::ostream& os, std::uint32_t server) {
  if (server == kNoServer) {
    os << "null";
  } else {
    os << server;
  }
}

}  // namespace

void Print(const std::vector<Incident>& incidents, std::ostream& os) {
  if (incidents.empty()) {
    os << "no incidents: no trigger fired over the monitored run\n";
    return;
  }
  os << incidents.size() << " incident(s)\n";
  for (const Incident& incident : incidents) {
    os << "incident #" << incident.id << ": [" << FormatMs(incident.begin)
       << " ms, " << FormatMs(incident.end) << " ms), slice ["
       << FormatMs(incident.slice_begin) << " ms, "
       << FormatMs(incident.slice_end) << " ms)\n";
    for (const Trigger& trigger : incident.triggers) {
      os << "  trigger " << ToString(trigger.kind) << " [" << trigger.detail
         << "] from window " << trigger.window << " @" << FormatMs(trigger.at)
         << " ms";
      if (trigger.windows > 1) os << " (" << trigger.windows << " windows)";
      if (trigger.server != kNoServer) os << " server " << trigger.server;
      os << '\n';
    }
    for (const sim::FaultEvent& fault : incident.faults) {
      os << "  fault " << sim::ToString(fault) << '\n';
    }
    if (!incident.balance.empty()) {
      os << "  balance " << incident.balance_summary.family << ": worst skew "
         << FormatValue(incident.balance_summary.worst_skew) << " in window "
         << incident.balance_summary.worst_window;
      if (incident.balance_summary.hot_instance != kNoServer) {
        os << ", max on instance " << incident.balance_summary.hot_instance;
      }
      os << '\n';
    }
    for (const ExemplarAttribution& exemplar : incident.exemplars) {
      os << "  exemplar " << exemplar.exemplar.histogram << " "
         << FormatValue(static_cast<double>(exemplar.exemplar.sample.nanos) /
                        1e6)
         << " ms, trace " << exemplar.exemplar.sample.trace_id << " span "
         << exemplar.exemplar.sample.span_id << ", node "
         << exemplar.exemplar.sample.node;
      if (exemplar.exemplar.sample.server != kNoServer) {
        os << ", server " << exemplar.exemplar.sample.server;
      }
      os << '\n';
      if (!exemplar.path.found) {
        os << "    critical path: span not in tracer ring\n";
        continue;
      }
      os << "    critical path:";
      for (const trace::PathShare& share : exemplar.path.by_category) {
        os << ' ' << share.label << '='
           << FormatValue(Ms(share.nanos)) << "ms";
      }
      os << '\n';
      os << "    by server:";
      for (const ServerPathShare& share : exemplar.by_server) {
        os << ' ';
        if (share.server == kNoServer) {
          os << "client";
        } else {
          os << 's' << share.server;
        }
        os << '=' << FormatValue(100.0 * share.share) << '%';
      }
      os << '\n';
    }
    for (const CauseScore& cause : incident.causes) {
      os << "  cause server " << cause.server << " score "
         << FormatValue(cause.score) << '\n';
      for (const std::string& evidence : cause.evidence) {
        os << "    - " << evidence << '\n';
      }
    }
    os << "  verdict: " << incident.verdict << '\n';
  }
}

void WriteJson(const std::vector<Incident>& incidents, std::ostream& os) {
  os << "{\"incidents\":[";
  for (std::size_t i = 0; i < incidents.size(); ++i) {
    const Incident& incident = incidents[i];
    if (i > 0) os << ',';
    os << "{\"id\":" << incident.id << ",\"begin\":" << incident.begin
       << ",\"end\":" << incident.end
       << ",\"slice_begin\":" << incident.slice_begin
       << ",\"slice_end\":" << incident.slice_end << ",\"triggers\":[";
    for (std::size_t t = 0; t < incident.triggers.size(); ++t) {
      const Trigger& trigger = incident.triggers[t];
      if (t > 0) os << ',';
      os << "{\"kind\":\"" << ToString(trigger.kind) << "\",\"detail\":";
      strfmt::WriteJsonString(os, trigger.detail);
      os << ",\"window\":" << trigger.window << ",\"at\":" << trigger.at
         << ",\"windows\":" << trigger.windows << ",\"server\":";
      WriteServerField(os, trigger.server);
      os << '}';
    }
    os << "],\"faults\":[";
    for (std::size_t f = 0; f < incident.faults.size(); ++f) {
      if (f > 0) os << ',';
      strfmt::WriteJsonString(os, sim::ToString(incident.faults[f]));
    }
    os << "],\"balance\":{\"family\":";
    strfmt::WriteJsonString(os, incident.balance_summary.family);
    os << ",\"worst_skew\":"
       << FormatValue(incident.balance_summary.worst_skew)
       << ",\"worst_window\":" << incident.balance_summary.worst_window
       << ",\"hot_instance\":";
    WriteServerField(os, incident.balance_summary.hot_instance);
    os << ",\"windows\":" << incident.balance.size();
    os << "},\"timeline\":[";
    for (std::size_t s = 0; s < incident.timeline.size(); ++s) {
      const TimelineSlice& slice = incident.timeline[s];
      if (s > 0) os << ',';
      os << "{\"series\":";
      strfmt::WriteJsonString(os, slice.series);
      os << ",\"points\":[";
      for (std::size_t p = 0; p < slice.points.size(); ++p) {
        const TimelinePoint& point = slice.points[p];
        if (p > 0) os << ',';
        os << '[' << point.start << ',' << point.end << ','
           << FormatValue(point.value) << ']';
      }
      os << "]}";
    }
    os << "],\"exemplars\":[";
    for (std::size_t e = 0; e < incident.exemplars.size(); ++e) {
      const ExemplarAttribution& exemplar = incident.exemplars[e];
      if (e > 0) os << ',';
      os << "{\"histogram\":";
      strfmt::WriteJsonString(os, exemplar.exemplar.histogram);
      os << ",\"nanos\":" << exemplar.exemplar.sample.nanos
         << ",\"trace\":" << exemplar.exemplar.sample.trace_id
         << ",\"span\":" << exemplar.exemplar.sample.span_id
         << ",\"node\":" << exemplar.exemplar.sample.node << ",\"server\":";
      WriteServerField(os, exemplar.exemplar.sample.server);
      os << ",\"at\":" << exemplar.exemplar.sample.at
         << ",\"path_found\":" << (exemplar.path.found ? "true" : "false");
      if (exemplar.path.found) {
        os << ",\"attributed\":" << exemplar.path.attributed
           << ",\"by_category\":[";
        for (std::size_t c = 0; c < exemplar.path.by_category.size(); ++c) {
          const trace::PathShare& share = exemplar.path.by_category[c];
          if (c > 0) os << ',';
          os << '[';
          strfmt::WriteJsonString(os, share.label);
          os << ',' << share.nanos << ']';
        }
        os << "],\"by_server\":[";
        for (std::size_t v = 0; v < exemplar.by_server.size(); ++v) {
          const ServerPathShare& share = exemplar.by_server[v];
          if (v > 0) os << ',';
          os << "{\"server\":";
          WriteServerField(os, share.server);
          os << ",\"nanos\":" << share.nanos
             << ",\"share\":" << FormatValue(share.share) << '}';
        }
        os << ']';
      }
      os << '}';
    }
    os << "],\"causes\":[";
    for (std::size_t c = 0; c < incident.causes.size(); ++c) {
      const CauseScore& cause = incident.causes[c];
      if (c > 0) os << ',';
      os << "{\"server\":" << cause.server
         << ",\"score\":" << FormatValue(cause.score) << ",\"evidence\":[";
      for (std::size_t v = 0; v < cause.evidence.size(); ++v) {
        if (v > 0) os << ',';
        strfmt::WriteJsonString(os, cause.evidence[v]);
      }
      os << "]}";
    }
    os << "],\"verdict\":";
    strfmt::WriteJsonString(os, incident.verdict);
    os << '}';
  }
  os << "]}\n";
}

}  // namespace memfs::diagnose
