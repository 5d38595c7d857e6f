// Unit tests for the continuous monitor: window slicing, registry scraping,
// probes, ring retention, balance math, the SLO rule language and its
// default rules. The cluster-scale neutrality claim (monitoring on == off,
// byte-identical digests) is pinned by the determinism_gate ctest; here a
// small sim checks the same property at unit scale.
#include <cmath>
#include <iterator>
#include <memory>
#include <sstream>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "common/metrics.h"
#include "monitor/monitor.h"
#include "monitor/slo.h"
#include "monitor/symmetry.h"
#include "sim/simulation.h"

namespace memfs::monitor {
namespace {

// --- Window slicing ---

TEST(MonitorTest, ClosesOneWindowPerBoundaryCrossed) {
  sim::Simulation sim;
  MonitorConfig config;
  config.interval = 10;
  Monitor mon(sim, config);
  int fired = 0;
  sim.Schedule(35, [&] { ++fired; });
  sim.Run();
  // The jump 0 -> 35 crosses boundaries 10, 20, 30.
  ASSERT_EQ(mon.windows().size(), 3u);
  EXPECT_EQ(mon.windows()[0].start, 0u);
  EXPECT_EQ(mon.windows()[0].end, 10u);
  EXPECT_EQ(mon.windows()[2].start, 20u);
  EXPECT_EQ(mon.windows()[2].end, 30u);
  EXPECT_EQ(fired, 1);
}

TEST(MonitorTest, FinishClosesTrailingPartialWindow) {
  sim::Simulation sim;
  MonitorConfig config;
  config.interval = 10;
  Monitor mon(sim, config);
  sim.Schedule(35, [] {});
  sim.Run();
  mon.Finish();
  ASSERT_EQ(mon.windows().size(), 4u);
  EXPECT_EQ(mon.windows()[3].start, 30u);
  EXPECT_EQ(mon.windows()[3].end, 35u);  // partial, ends at sim.now()
  mon.Finish();                          // idempotent until time advances
  EXPECT_EQ(mon.windows().size(), 4u);
}

TEST(MonitorTest, RetentionRingDropsOldestAndCounts) {
  sim::Simulation sim;
  MonitorConfig config;
  config.interval = 10;
  config.retention = 3;
  Monitor mon(sim, config);
  sim.Schedule(100, [] {});
  sim.Run();
  ASSERT_EQ(mon.windows().size(), 3u);
  EXPECT_EQ(mon.windows_closed(), 10u);
  EXPECT_EQ(mon.dropped_windows(), 7u);
  EXPECT_EQ(mon.windows().front().start, 70u);  // oldest surviving window
}

// --- Scraping ---

TEST(MonitorTest, GaugeSampledAsLevelAtBoundary) {
  sim::Simulation sim;
  MetricsRegistry registry;
  MonitorConfig config;
  config.interval = 10;
  Monitor mon(sim, config);
  mon.WatchRegistry(&registry);
  std::int64_t& depth = registry.Gauge("queue");
  sim.Schedule(5, [&] { depth = 7; });
  sim.Schedule(15, [&] { depth = 2; });
  sim.Schedule(25, [&] {});
  sim.Run();
  ASSERT_EQ(mon.windows().size(), 2u);
  const std::size_t id = mon.SeriesId("queue");
  ASSERT_NE(id, kNoSeries);
  EXPECT_EQ(mon.series()[id].kind, SeriesKind::kGauge);
  // Window [0,10) closes before the t=15 event: level is 7; [10,20) sees 2.
  EXPECT_DOUBLE_EQ(Monitor::Value(mon.windows()[0], id), 7.0);
  EXPECT_DOUBLE_EQ(Monitor::Value(mon.windows()[1], id), 2.0);
}

TEST(MonitorTest, CounterRecordedAsPerSecondRate) {
  sim::Simulation sim;
  MetricsRegistry registry;
  MonitorConfig config;
  config.interval = units::Millis(1);
  Monitor mon(sim, config);
  mon.WatchRegistry(&registry);
  std::uint64_t& retries = registry.Counter("retries");
  sim.Schedule(units::Micros(100), [&] { retries += 3; });
  sim.Schedule(units::Micros(1500), [&] { retries += 1; });
  sim.Schedule(units::Millis(2), [&] {});
  sim.Run();
  ASSERT_EQ(mon.windows().size(), 2u);
  const std::size_t id = mon.SeriesId("retries.rate");
  ASSERT_NE(id, kNoSeries);
  EXPECT_EQ(mon.series()[id].kind, SeriesKind::kRate);
  // 3 events in the first 1 ms window -> 3000/s; 1 in the second.
  EXPECT_DOUBLE_EQ(Monitor::Value(mon.windows()[0], id), 3000.0);
  EXPECT_DOUBLE_EQ(Monitor::Value(mon.windows()[1], id), 1000.0);
}

TEST(MonitorTest, HistogramCountBecomesOpRate) {
  sim::Simulation sim;
  MetricsRegistry registry;
  MonitorConfig config;
  config.interval = units::Millis(1);
  Monitor mon(sim, config);
  mon.WatchRegistry(&registry);
  sim.Schedule(units::Micros(10), [&] {
    registry.Histogram("kv.set").Record(500);
    registry.Histogram("kv.set").Record(900);
  });
  sim.Schedule(units::Millis(1), [&] {});
  sim.Run();
  const std::size_t id = mon.SeriesId("kv.set.rate");
  ASSERT_NE(id, kNoSeries);
  ASSERT_EQ(mon.windows().size(), 1u);
  EXPECT_DOUBLE_EQ(Monitor::Value(mon.windows()[0], id), 2000.0);
}

TEST(MonitorTest, ProbesGaugeAndScaledRate) {
  sim::Simulation sim;
  MonitorConfig config;
  config.interval = units::Millis(1);
  Monitor mon(sim, config);
  double level = 4.0;
  double total = 0.0;
  mon.AddGaugeProbe("level", [&] { return level; });
  // scale 0.001 turns "units per second" into "kilounits per second".
  mon.AddRateProbe("flow", [&] { return total; }, 0.001);
  sim.Schedule(units::Micros(100), [&] { total = 500.0; });
  sim.Schedule(units::Millis(1), [&] {
    level = 9.0;
    total = 800.0;
  });
  sim.Schedule(units::Millis(2), [&] {});
  sim.Run();
  ASSERT_EQ(mon.windows().size(), 2u);
  const std::size_t level_id = mon.SeriesId("level");
  const std::size_t flow_id = mon.SeriesId("flow");
  EXPECT_DOUBLE_EQ(Monitor::Value(mon.windows()[0], level_id), 4.0);
  // Second boundary samples *after* the t=1ms event ran: level is 9.
  EXPECT_DOUBLE_EQ(Monitor::Value(mon.windows()[1], level_id), 9.0);
  // 500 units in 1 ms -> 500000/s, scaled by 0.001 -> 500.
  EXPECT_DOUBLE_EQ(Monitor::Value(mon.windows()[0], flow_id), 500.0);
  EXPECT_DOUBLE_EQ(Monitor::Value(mon.windows()[1], flow_id), 300.0);
}

TEST(MonitorTest, LateSeriesReadNaNInEarlierWindows) {
  sim::Simulation sim;
  MetricsRegistry registry;
  MonitorConfig config;
  config.interval = 10;
  Monitor mon(sim, config);
  mon.WatchRegistry(&registry);
  sim.Schedule(15, [&] { registry.Gauge("late") = 5; });
  sim.Schedule(25, [&] {});
  sim.Run();
  ASSERT_EQ(mon.windows().size(), 2u);
  const std::size_t id = mon.SeriesId("late");
  ASSERT_NE(id, kNoSeries);
  EXPECT_TRUE(std::isnan(Monitor::Value(mon.windows()[0], id)));
  EXPECT_DOUBLE_EQ(Monitor::Value(mon.windows()[1], id), 5.0);
}

TEST(MonitorTest, InstancesOfOrdersByInstanceNumber) {
  sim::Simulation sim;
  MetricsRegistry registry;
  MonitorConfig config;
  config.interval = 10;
  Monitor mon(sim, config);
  mon.WatchRegistry(&registry);
  sim.Schedule(1, [&] {
    // Registered out of order; map iteration would give 0,10,2 as strings.
    registry.Gauge(InstanceGaugeName("kv.mem", 10)) = 1;
    registry.Gauge(InstanceGaugeName("kv.mem", 0)) = 1;
    registry.Gauge(InstanceGaugeName("kv.mem", 2)) = 1;
    registry.Gauge("kv.mem_total") = 3;  // different base, not an instance
  });
  sim.Schedule(10, [&] {});
  sim.Run();
  const std::vector<std::size_t> ids = mon.InstancesOf("kv.mem");
  ASSERT_EQ(ids.size(), 3u);
  EXPECT_EQ(mon.series()[ids[0]].instance, 0u);
  EXPECT_EQ(mon.series()[ids[1]].instance, 2u);
  EXPECT_EQ(mon.series()[ids[2]].instance, 10u);
}

TEST(MonitorTest, ObserverNeutralSameDigestWithAndWithoutMonitor) {
  auto run = [](bool monitored) {
    sim::Simulation sim;
    MetricsRegistry registry;
    std::unique_ptr<Monitor> mon;
    if (monitored) {
      MonitorConfig config;
      config.interval = 7;
      mon = std::make_unique<Monitor>(sim, config);
      mon->WatchRegistry(&registry);
    }
    for (int i = 1; i <= 20; ++i) {
      sim.Schedule(static_cast<sim::SimTime>(i * 13),
                   [&registry, i] { registry.Gauge("g") = i; });
    }
    sim.Run();
    return sim.EventDigest();
  };
  EXPECT_EQ(run(false), run(true));
}

TEST(MonitorTest, CsvAndJsonExportsCoverEveryWindow) {
  sim::Simulation sim;
  MetricsRegistry registry;
  MonitorConfig config;
  config.interval = 10;
  Monitor mon(sim, config);
  mon.WatchRegistry(&registry);
  sim.Schedule(5, [&] { registry.Gauge("g") = 3; });
  sim.Schedule(15, [&] { registry.Gauge("h") = 4; });  // second series late
  sim.Schedule(25, [&] {});
  sim.Run();
  std::ostringstream csv;
  mon.WriteCsv(csv);
  const std::string text = csv.str();
  EXPECT_NE(text.find("start_ns,end_ns,g,h"), std::string::npos);
  EXPECT_NE(text.find("0,10,3,"), std::string::npos);  // h absent -> empty
  EXPECT_NE(text.find("10,20,3,4"), std::string::npos);
}

// A read phase: ops queue at the io lanes while batches are in flight and
// nothing is written. io.queued counts queued reads too, so a stall rule on
// write rate flags this healthy window; the default stall rule must not.
TEST(MonitorTest, DefaultStallRuleIgnoresQueuedReads) {
  sim::Simulation sim;
  MetricsRegistry registry;
  Monitor mon(sim, MonitorConfig{10, 100});
  mon.WatchRegistry(&registry);
  sim.Schedule(1, [&] { registry.Histogram("vfs.write").Record(500); });
  sim.Schedule(11, [&] {
    registry.Gauge(InstanceGaugeName("io.queued", 0)) = 6;
    registry.Gauge(InstanceGaugeName("io.inflight_batches", 0)) = 2;
  });
  sim.Schedule(25, [] {});
  sim.Run();

  SloWatchdog watchdog(mon);
  ASSERT_TRUE(
      watchdog.AddRule("sum(vfs.write.rate) > 0 when sum(io.queued) > 0"));
  for (const char* rule : kDefaultSloRules) ASSERT_TRUE(watchdog.AddRule(rule));
  const std::vector<SloResult> results = watchdog.Evaluate();
  ASSERT_EQ(results.size(), 1 + std::size(kDefaultSloRules));
  EXPECT_FALSE(results[0].satisfied);  // the write-rate rule: window 1
  const SloResult& stall = results[3];  // kDefaultSloRules[2]
  ASSERT_NE(stall.rule.text.find("io.inflight_batches"), std::string::npos);
  EXPECT_EQ(stall.windows_evaluated, 1u);  // window 1: not vacuous
  EXPECT_TRUE(stall.satisfied);
}

// --- Balance math ---

Window MakeWindow(std::vector<double> values) {
  Window w;
  w.start = 0;
  w.end = 10;
  w.values = std::move(values);
  return w;
}

TEST(SymmetryTest, BalanceMatchesHandComputedStats) {
  // Instances 2, 4, 6: mean 4, max skew 6/4, MAD (2+0+2)/3 / 4, sample
  // variance (4+0+4)/2 = 4 (RunningStats semantics), chi2 (4+0+4)/4.
  const Window w = MakeWindow({2.0, 4.0, 6.0});
  const BalanceStats b = SymmetryAuditor::Balance(w, 0, {0, 1, 2});
  EXPECT_EQ(b.instances, 3u);
  EXPECT_DOUBLE_EQ(b.mean, 4.0);
  EXPECT_DOUBLE_EQ(b.min, 2.0);
  EXPECT_DOUBLE_EQ(b.max, 6.0);
  EXPECT_DOUBLE_EQ(b.max_skew, 1.5);
  EXPECT_DOUBLE_EQ(b.mean_skew, (2.0 + 0.0 + 2.0) / 3.0 / 4.0);
  EXPECT_DOUBLE_EQ(b.cv, 0.5);  // sample stddev 2 over mean 4
  EXPECT_DOUBLE_EQ(b.chi_square, 2.0);
}

TEST(SymmetryTest, ZeroMeanWindowIsPerfectlyBalanced) {
  const Window w = MakeWindow({0.0, 0.0, 0.0});
  const BalanceStats b = SymmetryAuditor::Balance(w, 0, {0, 1, 2});
  EXPECT_DOUBLE_EQ(b.max_skew, 1.0);
  EXPECT_DOUBLE_EQ(b.cv, 0.0);
  EXPECT_DOUBLE_EQ(b.chi_square, 0.0);
}

TEST(SymmetryTest, AuditTracksWorstWindowAcrossTimeline) {
  sim::Simulation sim;
  MetricsRegistry registry;
  MonitorConfig config;
  config.interval = 10;
  Monitor mon(sim, config);
  mon.WatchRegistry(&registry);
  std::int64_t& a = registry.Gauge(InstanceGaugeName("mem", 0));
  std::int64_t& b = registry.Gauge(InstanceGaugeName("mem", 1));
  sim.Schedule(1, [&] {
    a = 10;
    b = 10;
  });                                 // balanced
  sim.Schedule(11, [&] { b = 30; });  // skewed: mean 20, max 30
  sim.Schedule(21, [&] { a = 30; });  // balanced again
  sim.Schedule(35, [&] {});
  sim.Run();
  const SymmetryReport report = SymmetryAuditor(mon).Audit("mem");
  EXPECT_EQ(report.instance_count, 2u);
  ASSERT_EQ(report.windows.size(), 3u);
  EXPECT_DOUBLE_EQ(report.worst_skew, 1.5);
  EXPECT_EQ(report.worst_skew_window, 1u);
  EXPECT_DOUBLE_EQ(report.FractionWithinSkew(1.25), 2.0 / 3.0);
  EXPECT_DOUBLE_EQ(report.FractionWithinSkew(1.5), 1.0);
}

TEST(SymmetryTest, SingleInstanceFamilyYieldsEmptyReport) {
  sim::Simulation sim;
  MetricsRegistry registry;
  MonitorConfig config;
  config.interval = 10;
  Monitor mon(sim, config);
  mon.WatchRegistry(&registry);
  sim.Schedule(1, [&] { registry.Gauge(InstanceGaugeName("solo", 0)) = 1; });
  sim.Schedule(10, [&] {});
  sim.Run();
  EXPECT_TRUE(SymmetryAuditor(mon).Audit("solo").windows.empty());
  EXPECT_TRUE(SymmetryAuditor(mon).Audit("unknown").windows.empty());
}

// --- SLO rule language ---

TEST(SloTest, ParsesFullGrammar) {
  std::string error;
  const auto rule = ParseSloRule(
      "skew(kv.mem_bytes) < 1.25 when sum(io.queued) > 0 for 95% of windows",
      &error);
  ASSERT_TRUE(rule.has_value()) << error;
  EXPECT_EQ(rule->condition.term.fn, SloFn::kSkew);
  EXPECT_EQ(rule->condition.term.arg, "kv.mem_bytes");
  EXPECT_EQ(rule->condition.op, SloOp::kLt);
  EXPECT_DOUBLE_EQ(rule->condition.threshold, 1.25);
  ASSERT_TRUE(rule->guard.has_value());
  EXPECT_EQ(rule->guard->term.fn, SloFn::kSum);
  EXPECT_EQ(rule->guard->op, SloOp::kGt);
  EXPECT_DOUBLE_EQ(rule->min_pass_fraction, 0.95);
}

TEST(SloTest, ParseDefaultsAndOperators) {
  const auto rule = ParseSloRule("value(kv.backlog/3) <= 64");
  ASSERT_TRUE(rule.has_value());
  EXPECT_EQ(rule->condition.term.fn, SloFn::kValue);
  EXPECT_EQ(rule->condition.term.arg, "kv.backlog/3");
  EXPECT_EQ(rule->condition.op, SloOp::kLe);
  EXPECT_FALSE(rule->guard.has_value());
  EXPECT_DOUBLE_EQ(rule->min_pass_fraction, 1.0);
}

TEST(SloTest, RejectsMalformedRules) {
  std::string error;
  EXPECT_FALSE(ParseSloRule("", &error).has_value());
  EXPECT_FALSE(ParseSloRule("skew(x)", &error).has_value());
  EXPECT_FALSE(ParseSloRule("frob(x) < 1", &error).has_value());
  EXPECT_FALSE(ParseSloRule("skew(x) == 1", &error).has_value());
  EXPECT_FALSE(ParseSloRule("skew(x) < banana", &error).has_value());
  EXPECT_FALSE(ParseSloRule("skew(x) < 1 for 95%", &error).has_value());
  EXPECT_FALSE(error.empty());
}

// Monitor with two instances of "mem" and a "busy" gauge, over 4 windows:
//   window 0: mem balanced (10,10), busy 0
//   window 1: mem skewed   (10,30), busy 1
//   window 2: mem skewed   (30,90), busy 0
//   window 3: mem balanced (90,90), busy 1
struct SloFixture {
  sim::Simulation sim;
  MetricsRegistry registry;
  Monitor mon;

  SloFixture() : mon(sim, MonitorConfig{10, 100}) {
    mon.WatchRegistry(&registry);
    std::int64_t& a = registry.Gauge(InstanceGaugeName("mem", 0));
    std::int64_t& b = registry.Gauge(InstanceGaugeName("mem", 1));
    std::int64_t& busy = registry.Gauge("busy");
    sim.Schedule(1, [&] {
      a = 10;
      b = 10;
    });
    sim.Schedule(11, [&] {
      b = 30;
      busy = 1;
    });
    sim.Schedule(21, [&] {
      a = 30;
      b = 90;
      busy = 0;
    });
    sim.Schedule(31, [&] {
      a = 90;
      busy = 1;
    });
    sim.Schedule(45, [&] {});
    sim.Run();
  }
};

TEST(SloTest, EvaluatesPassFractionAndWorstWindow) {
  SloFixture fx;
  SloWatchdog watchdog(fx.mon);
  std::string error;
  ASSERT_TRUE(watchdog.AddRule("skew(mem) < 1.25 for 50% of windows", &error))
      << error;
  const std::vector<SloResult> results = watchdog.Evaluate();
  ASSERT_EQ(results.size(), 1u);
  const SloResult& r = results[0];
  EXPECT_EQ(r.windows_evaluated, 4u);
  EXPECT_EQ(r.windows_passed, 2u);
  EXPECT_DOUBLE_EQ(r.pass_fraction, 0.5);
  EXPECT_TRUE(r.satisfied);
  ASSERT_EQ(r.violations.size(), 2u);
  EXPECT_EQ(r.violations[0].window, 1u);
  EXPECT_EQ(r.violations[1].window, 2u);
  EXPECT_DOUBLE_EQ(r.worst_value, 1.5);  // both skewed windows hit 1.5
}

TEST(SloTest, GuardSkipsWindowsWhereItIsFalse) {
  SloFixture fx;
  SloWatchdog watchdog(fx.mon);
  // Only windows with busy > 0 (1 and 3) are evaluated; window 1 is skewed.
  ASSERT_TRUE(watchdog.AddRule("skew(mem) < 1.25 when value(busy) > 0"));
  const std::vector<SloResult> results = watchdog.Evaluate();
  ASSERT_EQ(results.size(), 1u);
  EXPECT_EQ(results[0].windows_evaluated, 2u);
  EXPECT_EQ(results[0].windows_passed, 1u);
  EXPECT_FALSE(results[0].satisfied);  // default: 100% must pass
  ASSERT_EQ(results[0].violations.size(), 1u);
  EXPECT_EQ(results[0].violations[0].window, 1u);
}

TEST(SloTest, AggregateTermsAndHigherIsBetterDirection) {
  SloFixture fx;
  SloWatchdog watchdog(fx.mon);
  ASSERT_TRUE(watchdog.AddRule("sum(mem) > 15"));   // 20,40,120,180: all pass
  ASSERT_TRUE(watchdog.AddRule("max(mem) <= 30"));  // fails windows 2,3
  const std::vector<SloResult> results = watchdog.Evaluate();
  ASSERT_EQ(results.size(), 2u);
  EXPECT_TRUE(results[0].satisfied);
  EXPECT_EQ(results[0].windows_passed, 4u);
  EXPECT_FALSE(results[1].satisfied);
  EXPECT_EQ(results[1].windows_passed, 2u);
  EXPECT_DOUBLE_EQ(results[1].worst_value, 90.0);
}

TEST(SloTest, MissingSeriesSkipsWindowsNotWholeRule) {
  SloFixture fx;
  SloWatchdog watchdog(fx.mon);
  ASSERT_TRUE(watchdog.AddRule("value(ghost) < 1"));
  const std::vector<SloResult> results = watchdog.Evaluate();
  ASSERT_EQ(results.size(), 1u);
  EXPECT_EQ(results[0].windows_evaluated, 0u);
  EXPECT_TRUE(results[0].satisfied);  // absence of evidence: not a failure
  EXPECT_TRUE(results[0].vacuous);    // ...but flagged, not silently passing
}

// --- SLO grammar edge cases ---

TEST(SloTest, MalformedRulesAreRejectedWithError) {
  const char* const kBad[] = {
      "",                              // empty
      "skew(mem)",                     // no comparison
      "skew(mem) <",                   // missing threshold
      "skew(mem) < banana",            // non-numeric threshold
      "skew mem < 1.25",               // missing parentheses
      "skew(mem < 1.25",               // unbalanced parenthesis
      "skew() < 1.25",                 // empty argument
      "skew(mem) == 1.25",             // unsupported operator
      "skew(mem) < 1.25 when",         // dangling guard
      "skew(mem) < 1.25 when cv(mem)", // guard without comparison
      "skew(mem) < 1.25 for",          // dangling for-clause
      "skew(mem) < 1.25 for pct% of windows",  // non-numeric percentage
      "skew(mem) < 1.25 for 95%",      // truncated for-clause
  };
  for (const char* text : kBad) {
    std::string error;
    EXPECT_FALSE(ParseSloRule(text, &error).has_value()) << text;
    EXPECT_FALSE(error.empty()) << text;
  }
}

TEST(SloTest, UnknownFunctionIsAParseError) {
  std::string error;
  EXPECT_FALSE(ParseSloRule("median(mem) < 1.25", &error).has_value());
  EXPECT_NE(error.find("median"), std::string::npos) << error;
  SloFixture fx;
  SloWatchdog watchdog(fx.mon);
  EXPECT_FALSE(watchdog.AddRule("median(mem) < 1.25", &error));
  EXPECT_TRUE(watchdog.rules().empty());
}

TEST(SloTest, NeverMatchingGuardIsVacuousNotPassing) {
  SloFixture fx;
  SloWatchdog watchdog(fx.mon);
  // busy never exceeds 5, so the guard excludes every window.
  ASSERT_TRUE(watchdog.AddRule("skew(mem) < 1.25 when value(busy) > 5"));
  const std::vector<SloResult> results = watchdog.Evaluate();
  ASSERT_EQ(results.size(), 1u);
  EXPECT_EQ(results[0].windows_evaluated, 0u);
  EXPECT_TRUE(results[0].satisfied);
  EXPECT_TRUE(results[0].vacuous);
  std::ostringstream report;
  SloWatchdog::PrintResults(results, report, /*csv=*/false);
  EXPECT_NE(report.str().find("VACUOUS"), std::string::npos) << report.str();
  EXPECT_EQ(report.str().find("PASS"), std::string::npos) << report.str();
}

TEST(SloTest, ForClauseWithZeroEvaluatedWindowsIsVacuous) {
  // A monitor that closed no windows at all: `for P%` has an empty
  // denominator and must report VACUOUS rather than claim a pass rate.
  sim::Simulation sim;
  MonitorConfig config;
  config.interval = 10;
  Monitor mon(sim, config);
  sim.Run();  // nothing scheduled: no window ever closes
  ASSERT_TRUE(mon.windows().empty());
  SloWatchdog watchdog(mon);
  ASSERT_TRUE(watchdog.AddRule("skew(mem) < 1.25 for 95% of windows"));
  const std::vector<SloResult> results = watchdog.Evaluate();
  ASSERT_EQ(results.size(), 1u);
  EXPECT_EQ(results[0].windows_evaluated, 0u);
  EXPECT_DOUBLE_EQ(results[0].pass_fraction, 1.0);
  EXPECT_TRUE(results[0].satisfied);
  EXPECT_TRUE(results[0].vacuous);
}

TEST(SloTest, SatisfiedViolatedRuleIsNotVacuous) {
  SloFixture fx;
  SloWatchdog watchdog(fx.mon);
  ASSERT_TRUE(watchdog.AddRule("skew(mem) < 1.25"));  // fails windows 1,2
  const std::vector<SloResult> results = watchdog.Evaluate();
  ASSERT_EQ(results.size(), 1u);
  EXPECT_FALSE(results[0].satisfied);
  EXPECT_FALSE(results[0].vacuous);
  std::ostringstream report;
  SloWatchdog::PrintResults(results, report, /*csv=*/false);
  EXPECT_NE(report.str().find("FAIL"), std::string::npos) << report.str();
  EXPECT_EQ(report.str().find("VACUOUS"), std::string::npos) << report.str();
}

}  // namespace
}  // namespace memfs::monitor
