// Unit tests for the incident flight recorder: trigger detection (SLO
// violations, breaker OPEN transitions, migration stalls), episode merging
// and trigger folding, frozen timeline/balance/fault slices, exemplar
// attribution through "server" span annotations, cause ranking, and the
// determinism of the exported report. The end-to-end neutrality claim
// (diagnosis on == off, byte-identical digests and JSON) is pinned by the
// determinism_gate ctest.
#include <sstream>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "common/metrics.h"
#include "diagnose/diagnose.h"
#include "monitor/monitor.h"
#include "monitor/slo.h"
#include "sim/fault.h"
#include "sim/simulation.h"
#include "trace/trace.h"

namespace memfs::diagnose {
namespace {

// Monitor over two "kv.mem_bytes" instances (the family the recorder
// audits) and one breaker gauge, 8 windows of 10:
//   w0 [ 0,10): balanced (10,10)
//   w1 [10,20): skewed   (10,30)
//   w2 [20,30): skewed   (10,40), kv.breaker/1 opens, exemplar recorded
//   w3 [30,40): skewed   (10,30)
//   w4 [40,50): balanced (10,10), breaker closes
//   w5 [50,60): balanced
//   w6 [60,70): skewed   (10,50)
//   w7 [70,80): balanced
// The skew(kv.mem_bytes) rule fails windows 1-3 and 6; with the merge gap
// of one window that is two episodes.
struct RecorderFixture {
  sim::Simulation sim;
  MetricsRegistry registry;
  monitor::Monitor mon;
  trace::Tracer tracer;
  trace::TraceContext root;
  trace::TraceContext kv;

  explicit RecorderFixture() : mon(sim, monitor::MonitorConfig{10, 100}),
                               tracer(sim) {
    mon.WatchRegistry(&registry);
    mon.HarvestExemplars(&registry);
    std::int64_t& a = registry.Gauge(InstanceGaugeName("kv.mem_bytes", 0));
    std::int64_t& b = registry.Gauge(InstanceGaugeName("kv.mem_bytes", 1));
    std::int64_t& breaker = registry.Gauge(InstanceGaugeName("kv.breaker", 1));
    sim.Schedule(1, [&] {
      a = 10;
      b = 10;
      breaker = 0;
    });
    // The exemplar operation: a vfs root span over [5, 25) whose kv child
    // pins server 1 for [5, 17); the rest is client-side time.
    sim.Schedule(5, [this] {
      root = tracer.StartTrace("vfs.write", "vfs", /*node=*/2);
      kv = trace::Child(root, "kv.set", "kv");
      trace::Annotate(kv, "server", "1");
    });
    sim.Schedule(17, [this] { trace::End(kv); });
    sim.Schedule(25, [this] {
      trace::End(root);
      Exemplar tag;
      tag.trace_id = root.trace_id;
      tag.span_id = root.span_id;
      tag.node = 2;
      tag.at = sim.now();
      registry.Histogram("vfs.write").Record(20'000, tag);
    });
    sim.Schedule(11, [&] { b = 30; });
    sim.Schedule(21, [&] {
      b = 40;
      breaker = 1;
    });
    sim.Schedule(31, [&] { b = 30; });
    sim.Schedule(41, [&] {
      b = 10;
      breaker = 0;
    });
    sim.Schedule(61, [&] { b = 50; });
    sim.Schedule(71, [&] { b = 10; });
    sim.Schedule(85, [] {});
    sim.Run();
  }

  std::vector<monitor::SloResult> SkewResults() {
    monitor::SloWatchdog watchdog(mon);
    [&] { ASSERT_TRUE(watchdog.AddRule("skew(kv.mem_bytes) < 1.25")); }();
    return watchdog.Evaluate();
  }
};

TEST(FlightRecorderTest, MergesEpisodesAndFoldsRepeatedTriggers) {
  RecorderFixture fx;
  const std::vector<Incident> incidents =
      Diagnose(fx.mon, fx.SkewResults(), nullptr, {});

  // Windows 1-3 coalesce (gap 0 between consecutive violations); window 6
  // is beyond the merge gap and opens its own incident.
  ASSERT_EQ(incidents.size(), 2u);
  EXPECT_EQ(incidents[0].first_window, 1u);
  EXPECT_EQ(incidents[0].last_window, 3u);
  EXPECT_EQ(incidents[1].first_window, 6u);
  EXPECT_EQ(incidents[1].last_window, 6u);

  // Three violating windows fold into ONE slo trigger carrying the count.
  const Incident& first = incidents[0];
  std::size_t slo_triggers = 0;
  for (const Trigger& trigger : first.triggers) {
    if (trigger.kind == TriggerKind::kSloViolation) {
      ++slo_triggers;
      EXPECT_EQ(trigger.window, 1u);
      EXPECT_EQ(trigger.windows, 3u);
    }
  }
  EXPECT_EQ(slo_triggers, 1u);

  // Padded slice: context 2 around [1, 3], clamped at window 0.
  EXPECT_EQ(first.slice_first, 0u);
  EXPECT_EQ(first.slice_last, 5u);
  EXPECT_EQ(first.begin, 10u);
  EXPECT_EQ(first.end, 40u);
  EXPECT_EQ(first.slice_begin, 0u);
  EXPECT_EQ(first.slice_end, 60u);
}

TEST(FlightRecorderTest, BreakerTransitionAttachesToOverlappingEpisode) {
  RecorderFixture fx;
  const std::vector<Incident> incidents =
      Diagnose(fx.mon, fx.SkewResults(), nullptr, {});
  ASSERT_EQ(incidents.size(), 2u);

  const Incident& first = incidents[0];
  bool breaker_seen = false;
  for (const Trigger& trigger : first.triggers) {
    if (trigger.kind != TriggerKind::kBreakerOpen) continue;
    breaker_seen = true;
    EXPECT_EQ(trigger.detail, InstanceGaugeName("kv.breaker", 1));
    EXPECT_EQ(trigger.window, 2u);
    EXPECT_EQ(trigger.server, 1u);
  }
  EXPECT_TRUE(breaker_seen);
  // The second episode (window 6) has no breaker transition attached.
  for (const Trigger& trigger : incidents[1].triggers) {
    EXPECT_EQ(trigger.kind, TriggerKind::kSloViolation);
  }
}

TEST(FlightRecorderTest, FreezesBalanceTimelineAndRanksHotInstance) {
  RecorderFixture fx;
  const std::vector<Incident> incidents =
      Diagnose(fx.mon, fx.SkewResults(), nullptr, {});
  ASSERT_EQ(incidents.size(), 2u);

  const Incident& first = incidents[0];
  // Worst skew in the slice is window 2: max 40 / mean 25 = 1.6, held by
  // instance 1.
  EXPECT_DOUBLE_EQ(first.balance_summary.worst_skew, 1.6);
  EXPECT_EQ(first.balance_summary.worst_window, 2u);
  EXPECT_EQ(first.balance_summary.hot_instance, 1u);
  EXPECT_FALSE(first.balance.empty());

  // The timeline freezes the rule's family and the breaker gauges.
  bool has_mem = false;
  bool has_breaker = false;
  for (const TimelineSlice& slice : first.timeline) {
    if (slice.series == InstanceGaugeName("kv.mem_bytes", 1)) has_mem = true;
    if (slice.series == InstanceGaugeName("kv.breaker", 1)) {
      has_breaker = true;
    }
    for (const TimelinePoint& point : slice.points) {
      EXPECT_GE(point.start, first.slice_begin);
      EXPECT_LE(point.end, first.slice_end);
    }
  }
  EXPECT_TRUE(has_mem);
  EXPECT_TRUE(has_breaker);

  // Without a tracer, causes still rank the breaker server + hot instance:
  // server 1 collects both (0.5 + 0.25).
  ASSERT_FALSE(first.causes.empty());
  EXPECT_EQ(first.causes[0].server, 1u);
  EXPECT_DOUBLE_EQ(first.causes[0].score, 0.75);
  EXPECT_EQ(first.causes[0].evidence.size(), 2u);
}

TEST(FlightRecorderTest, ExemplarIsFrozenAndAttributedThroughSpans) {
  RecorderFixture fx;
  const std::vector<Incident> incidents =
      Diagnose(fx.mon, fx.SkewResults(), &fx.tracer, {});
  ASSERT_EQ(incidents.size(), 2u);

  const Incident& first = incidents[0];
  ASSERT_EQ(first.exemplars.size(), 1u);
  const ExemplarAttribution& exemplar = first.exemplars[0];
  EXPECT_EQ(exemplar.exemplar.histogram, "vfs.write");
  EXPECT_EQ(exemplar.exemplar.sample.nanos, 20'000u);
  ASSERT_TRUE(exemplar.path.found);
  // Root span runs [5, 25); its kv child [5, 17) resolves to server 1 via
  // the "server" annotation, the remainder [17, 25) is client-side.
  ASSERT_EQ(exemplar.by_server.size(), 2u);
  EXPECT_EQ(exemplar.by_server[0].server, 1u);
  EXPECT_EQ(exemplar.by_server[0].nanos, 12u);
  EXPECT_DOUBLE_EQ(exemplar.by_server[0].share, 0.6);
  EXPECT_EQ(exemplar.by_server[1].server, kNoServer);
  EXPECT_EQ(exemplar.by_server[1].nanos, 8u);

  // The attributed share feeds the ranking: server 1 now also carries the
  // exemplar credit on top of breaker + hot-instance evidence.
  ASSERT_FALSE(first.causes.empty());
  EXPECT_EQ(first.causes[0].server, 1u);
  EXPECT_DOUBLE_EQ(first.causes[0].score, 0.75 + 0.6);
  EXPECT_EQ(first.causes[0].evidence.size(), 3u);
}

TEST(FlightRecorderTest, OverlappingFaultsAreFrozenAndScored) {
  RecorderFixture fx;
  sim::FaultEvent crash;  // inside the first incident's slice [0, 60)
  crash.kind = sim::FaultKind::kServerCrash;
  crash.start = 15;
  crash.duration = 10;
  crash.server = 6;
  sim::FaultEvent far_away;  // outside every slice
  far_away.kind = sim::FaultKind::kServerSlow;
  far_away.start = 500;
  far_away.duration = 100;
  far_away.server = 0;
  const std::vector<Incident> incidents =
      Diagnose(fx.mon, fx.SkewResults(), nullptr, {crash, far_away});
  ASSERT_EQ(incidents.size(), 2u);
  ASSERT_EQ(incidents[0].faults.size(), 1u);
  EXPECT_EQ(incidents[0].faults[0].server, 6u);
  EXPECT_TRUE(incidents[1].faults.empty());

  // The crashed server outranks the breaker/hot-instance suspect.
  ASSERT_GE(incidents[0].causes.size(), 2u);
  EXPECT_EQ(incidents[0].causes[0].server, 6u);
  EXPECT_DOUBLE_EQ(incidents[0].causes[0].score, 1.0);
  EXPECT_EQ(incidents[0].causes[1].server, 1u);
  // The verdict names the top cause.
  EXPECT_NE(incidents[0].verdict.find("top cause server 6"),
            std::string::npos);
}

TEST(FlightRecorderTest, MigrationStallOpensItsOwnIncident) {
  sim::Simulation sim;
  MetricsRegistry registry;
  monitor::Monitor mon(sim, monitor::MonitorConfig{10, 100});
  mon.WatchRegistry(&registry);
  std::int64_t& active = registry.Gauge("migrate.active");
  std::int64_t& moved = registry.Gauge("migrate.keys_moved");
  sim.Schedule(1, [&] {
    active = 1;
    moved = 5;
  });
  sim.Schedule(11, [&] { moved = 10; });
  // Windows 2 to 9 show an active sweep with no progress: the eighth flat
  // window, 9, fires the stall.
  sim.Schedule(105, [] {});
  sim.Run();

  const std::vector<Incident> incidents = Diagnose(mon, {}, nullptr, {});
  ASSERT_EQ(incidents.size(), 1u);
  ASSERT_EQ(incidents[0].triggers.size(), 1u);
  EXPECT_EQ(incidents[0].triggers[0].kind, TriggerKind::kMigrationStall);
  EXPECT_EQ(incidents[0].triggers[0].window, 9u);
  // The migration gauges are frozen into the slice.
  bool has_moved = false;
  for (const TimelineSlice& slice : incidents[0].timeline) {
    if (slice.series == "migrate.keys_moved") has_moved = true;
  }
  EXPECT_TRUE(has_moved);
}

TEST(FlightRecorderTest, NoTriggersMeansNoIncidents) {
  sim::Simulation sim;
  MetricsRegistry registry;
  monitor::Monitor mon(sim, monitor::MonitorConfig{10, 100});
  mon.WatchRegistry(&registry);
  std::int64_t& g = registry.Gauge("steady");
  sim.Schedule(1, [&] { g = 10; });
  sim.Schedule(25, [] {});
  sim.Run();

  monitor::SloWatchdog watchdog(mon);
  ASSERT_TRUE(watchdog.AddRule("value(steady) > 0"));  // satisfied
  EXPECT_TRUE(Diagnose(mon, watchdog.Evaluate(), nullptr, {}).empty());

  std::ostringstream report;
  Print({}, report);
  EXPECT_NE(report.str().find("no incidents"), std::string::npos);
}

TEST(FlightRecorderTest, ReportAndJsonAreDeterministic) {
  RecorderFixture fx;
  const std::vector<monitor::SloResult> slo = fx.SkewResults();
  const std::vector<Incident> once = Diagnose(fx.mon, slo, &fx.tracer, {});
  const std::vector<Incident> twice = Diagnose(fx.mon, slo, &fx.tracer, {});
  std::ostringstream json_a;
  std::ostringstream json_b;
  WriteJson(once, json_a);
  WriteJson(twice, json_b);
  EXPECT_EQ(json_a.str(), json_b.str());
  EXPECT_NE(json_a.str().find("\"incidents\":["), std::string::npos);
  EXPECT_NE(json_a.str().find("\"verdict\":"), std::string::npos);
  EXPECT_NE(json_a.str().find("\"by_server\":"), std::string::npos);

  std::ostringstream human_a;
  std::ostringstream human_b;
  Print(once, human_a);
  Print(twice, human_b);
  EXPECT_EQ(human_a.str(), human_b.str());
  EXPECT_NE(human_a.str().find("verdict:"), std::string::npos);
  EXPECT_NE(human_a.str().find("(3 windows)"), std::string::npos);
}

}  // namespace
}  // namespace memfs::diagnose
