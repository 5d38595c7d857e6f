// Tests for the latency instrumentation: histogram math, registry, and
// end-to-end recording through the MemFS data path; plus the Flush API.
#include <sstream>

#include <gtest/gtest.h>

#include "common/metrics.h"
#include "common/units.h"
#include "test_util.h"
#include "testbed_fixture.h"
#include "workloads/envelope.h"
#include "workloads/testbed.h"

namespace memfs {
namespace {

using memfs::testing::Await;
using memfs::testing::BedConfig;
using units::KiB;
using units::MiB;

// --- LatencyHistogram ---

TEST(LatencyHistogramTest, EmptyHistogram) {
  LatencyHistogram h;
  EXPECT_EQ(h.count(), 0u);
  EXPECT_DOUBLE_EQ(h.MeanNanos(), 0.0);
  EXPECT_DOUBLE_EQ(h.PercentileNanos(0.5), 0.0);
}

TEST(LatencyHistogramTest, SingleSample) {
  LatencyHistogram h;
  h.Record(1000);
  EXPECT_EQ(h.count(), 1u);
  EXPECT_EQ(h.min_nanos(), 1000u);
  EXPECT_EQ(h.max_nanos(), 1000u);
  EXPECT_DOUBLE_EQ(h.MeanNanos(), 1000.0);
  // With one sample every percentile is (clamped to) that sample.
  EXPECT_DOUBLE_EQ(h.PercentileNanos(0.5), 1000.0);
  EXPECT_DOUBLE_EQ(h.PercentileNanos(0.99), 1000.0);
}

TEST(LatencyHistogramTest, PercentilesAreMonotone) {
  LatencyHistogram h;
  for (std::uint64_t v = 1; v <= 10000; v += 7) h.Record(v);
  double last = 0.0;
  for (double q : {0.1, 0.25, 0.5, 0.75, 0.9, 0.99, 1.0}) {
    const double p = h.PercentileNanos(q);
    EXPECT_GE(p, last) << q;
    last = p;
  }
  EXPECT_LE(last, static_cast<double>(h.max_nanos()));
}

TEST(LatencyHistogramTest, MedianWithinBucketResolution) {
  LatencyHistogram h;
  // 1000 samples uniform in [1000, 2000): true median ~1500; sqrt(2)
  // buckets bound the error by one bucket ratio.
  for (int i = 0; i < 1000; ++i) h.Record(1000 + i);
  const double median = h.PercentileNanos(0.5);
  EXPECT_GE(median, 1000.0);
  EXPECT_LE(median, 2000.0);
}

TEST(LatencyHistogramTest, ExtremeValuesClampToLastBucket) {
  LatencyHistogram h;
  h.Record(0);
  h.Record(~0ull);  // far beyond the last bucket bound
  EXPECT_EQ(h.count(), 2u);
  EXPECT_EQ(h.max_nanos(), ~0ull);
  EXPECT_GT(h.PercentileNanos(1.0), 0.0);
}

TEST(LatencyHistogramTest, BucketBoundsStrictlyIncrease) {
  for (std::size_t b = 1; b < LatencyHistogram::kBuckets; ++b) {
    EXPECT_GT(LatencyHistogram::BucketUpperBound(b),
              LatencyHistogram::BucketUpperBound(b - 1));
  }
  // The table must reach well past 10 seconds.
  EXPECT_GT(LatencyHistogram::BucketUpperBound(LatencyHistogram::kBuckets - 1),
            units::Seconds(10));
}

TEST(LatencyHistogramTest, MergeCombines) {
  LatencyHistogram a;
  LatencyHistogram b;
  for (int i = 0; i < 100; ++i) a.Record(100);
  for (int i = 0; i < 100; ++i) b.Record(10000);
  a.Merge(b);
  EXPECT_EQ(a.count(), 200u);
  EXPECT_EQ(a.min_nanos(), 100u);
  EXPECT_EQ(a.max_nanos(), 10000u);
  EXPECT_NEAR(a.MeanNanos(), 5050.0, 1.0);
  EXPECT_LT(a.PercentileNanos(0.4), 200.0);
  EXPECT_GT(a.PercentileNanos(0.9), 5000.0);
}

TEST(LatencyHistogramTest, PercentileExtremesReturnExactMinAndMax) {
  LatencyHistogram h;
  // Empty histogram: every quantile, extremes included, is 0.
  EXPECT_DOUBLE_EQ(h.PercentileNanos(0.0), 0.0);
  EXPECT_DOUBLE_EQ(h.PercentileNanos(1.0), 0.0);

  h.Record(1200);
  h.Record(3400);
  h.Record(777777);
  // q=0 / q=1 are exact observed extremes, not bucket bounds.
  EXPECT_DOUBLE_EQ(h.PercentileNanos(0.0), 1200.0);
  EXPECT_DOUBLE_EQ(h.PercentileNanos(1.0), 777777.0);
  // Out-of-range q clamps to the extremes.
  EXPECT_DOUBLE_EQ(h.PercentileNanos(-0.5), 1200.0);
  EXPECT_DOUBLE_EQ(h.PercentileNanos(2.0), 777777.0);
}

TEST(LatencyHistogramTest, MergePreservesMinMaxWhenEitherSideEmpty) {
  LatencyHistogram filled;
  filled.Record(500);
  filled.Record(9000);

  LatencyHistogram empty;
  filled.Merge(empty);  // empty right side must not disturb the extremes
  EXPECT_EQ(filled.count(), 2u);
  EXPECT_EQ(filled.min_nanos(), 500u);
  EXPECT_EQ(filled.max_nanos(), 9000u);

  LatencyHistogram target;
  target.Merge(filled);  // empty left side adopts the right's extremes
  EXPECT_EQ(target.count(), 2u);
  EXPECT_EQ(target.min_nanos(), 500u);
  EXPECT_EQ(target.max_nanos(), 9000u);
  EXPECT_DOUBLE_EQ(target.PercentileNanos(0.0), 500.0);
  EXPECT_DOUBLE_EQ(target.PercentileNanos(1.0), 9000.0);

  LatencyHistogram still_empty;
  still_empty.Merge(empty);  // empty + empty stays a valid empty histogram
  EXPECT_EQ(still_empty.count(), 0u);
  EXPECT_EQ(still_empty.min_nanos(), 0u);
  EXPECT_EQ(still_empty.max_nanos(), 0u);
  EXPECT_DOUBLE_EQ(still_empty.PercentileNanos(0.5), 0.0);
}

// --- Exemplar reservoir ---

Exemplar Tagged(std::uint64_t nanos, std::uint64_t trace_id,
                std::uint64_t span_id, std::uint64_t at) {
  Exemplar tag;
  tag.nanos = nanos;
  tag.trace_id = trace_id;
  tag.span_id = span_id;
  tag.at = at;
  return tag;
}

TEST(ExemplarTest, PlainRecordLeavesReservoirEmpty) {
  LatencyHistogram h;
  h.Record(1000);
  h.Record(2000);
  EXPECT_TRUE(h.exemplars().empty());
  EXPECT_TRUE(h.TakeExemplars().empty());
  EXPECT_EQ(h.count(), 2u);
}

TEST(ExemplarTest, KeepsWorstKWorstFirst) {
  LatencyHistogram h;
  // 2 * capacity samples with distinct latencies 1..16 (in mixed order).
  for (std::uint64_t n : {9, 2, 16, 5, 12, 1, 7, 14, 3, 10, 6, 13, 4, 15, 8,
                          11}) {
    h.Record(n, Tagged(n, /*trace_id=*/n, /*span_id=*/n, /*at=*/n));
  }
  const std::vector<Exemplar> kept = h.TakeExemplars();
  ASSERT_EQ(kept.size(), LatencyHistogram::kExemplarCapacity);
  for (std::size_t i = 0; i < kept.size(); ++i) {
    EXPECT_EQ(kept[i].nanos, 16u - i) << i;  // 16, 15, ..., 9 worst-first
  }
  // Sample counting is unaffected by reservoir eviction.
  EXPECT_EQ(h.count(), 16u);
}

TEST(ExemplarTest, TakeDrainsAndResetsForNextWindow) {
  LatencyHistogram h;
  h.Record(100, Tagged(100, 1, 1, 10));
  ASSERT_EQ(h.TakeExemplars().size(), 1u);
  EXPECT_TRUE(h.exemplars().empty());
  // A fresh window retains fresh samples, even smaller ones.
  h.Record(50, Tagged(50, 2, 2, 20));
  const std::vector<Exemplar> next = h.TakeExemplars();
  ASSERT_EQ(next.size(), 1u);
  EXPECT_EQ(next[0].trace_id, 2u);
}

TEST(ExemplarTest, TieBreakIsDeterministic) {
  // Equal latencies: earlier completion wins, then smaller trace id, then
  // smaller span id — insertion order must not matter.
  LatencyHistogram a;
  LatencyHistogram b;
  const std::vector<Exemplar> samples = {
      Tagged(500, 3, 1, 7), Tagged(500, 2, 9, 7), Tagged(500, 2, 4, 7),
      Tagged(500, 8, 8, 3), Tagged(900, 1, 1, 50),
  };
  for (const Exemplar& s : samples) a.Record(s.nanos, s);
  for (auto it = samples.rbegin(); it != samples.rend(); ++it) {
    b.Record(it->nanos, *it);
  }
  const std::vector<Exemplar> from_a = a.TakeExemplars();
  const std::vector<Exemplar> from_b = b.TakeExemplars();
  ASSERT_EQ(from_a.size(), samples.size());
  ASSERT_EQ(from_b.size(), samples.size());
  for (std::size_t i = 0; i < from_a.size(); ++i) {
    EXPECT_EQ(from_a[i].trace_id, from_b[i].trace_id) << i;
    EXPECT_EQ(from_a[i].span_id, from_b[i].span_id) << i;
  }
  EXPECT_EQ(from_a[0].nanos, 900u);           // worst latency first
  EXPECT_EQ(from_a[1].at, 3u);                // then earliest completion
  EXPECT_EQ(from_a[2].trace_id, 2u);          // then smallest trace id...
  EXPECT_EQ(from_a[2].span_id, 4u);           // ...and smallest span id
  EXPECT_EQ(from_a[3].span_id, 9u);
  EXPECT_EQ(from_a[4].trace_id, 3u);
}

TEST(ExemplarTest, UntracedSampleIsCountedButNotKept) {
  LatencyHistogram h;
  h.Record(700, Tagged(700, /*trace_id=*/0, /*span_id=*/3, /*at=*/9));
  EXPECT_EQ(h.count(), 1u);
  EXPECT_EQ(h.max_nanos(), 700u);
  EXPECT_TRUE(h.exemplars().empty());
  EXPECT_TRUE(h.TakeExemplars().empty());
}

TEST(ExemplarTest, UntaggedFieldsDefaultToNoServer) {
  Exemplar tag;
  EXPECT_EQ(tag.server, kNoExemplarServer);
  EXPECT_EQ(tag.trace_id, 0u);
}

// --- MetricsRegistry ---

TEST(MetricsRegistryTest, HistogramsPersistByName) {
  MetricsRegistry registry;
  registry.Histogram("op.a").Record(5);
  registry.Histogram("op.a").Record(7);
  registry.Histogram("op.b").Record(9);
  EXPECT_EQ(registry.Histogram("op.a").count(), 2u);
  EXPECT_EQ(registry.Histogram("op.b").count(), 1u);
  EXPECT_EQ(registry.all().size(), 2u);
}

TEST(MetricsRegistryTest, ReportPrintsAllOperations) {
  MetricsRegistry registry;
  registry.Histogram("kv.get").Record(units::Micros(120));
  registry.Histogram("vfs.read").Record(units::Micros(250));
  std::ostringstream os;
  registry.Report(os);
  EXPECT_NE(os.str().find("kv.get"), std::string::npos);
  EXPECT_NE(os.str().find("vfs.read"), std::string::npos);
}

TEST(MetricsRegistryTest, CountersAccumulateByName) {
  MetricsRegistry registry;
  registry.Counter("kv.retries") += 3;
  ++registry.Counter("kv.retries");
  registry.Counter("fs.read_repairs") = 2;
  EXPECT_EQ(registry.CounterValue("kv.retries"), 4u);
  EXPECT_EQ(registry.CounterValue("fs.read_repairs"), 2u);
  EXPECT_EQ(registry.CounterValue("never.touched"), 0u);
  EXPECT_EQ(registry.counters().size(), 2u);

  // Nonzero counters show up in the report alongside the histograms.
  registry.Histogram("kv.get").Record(units::Micros(10));
  std::ostringstream os;
  registry.Report(os);
  EXPECT_NE(os.str().find("kv.retries"), std::string::npos);
  EXPECT_NE(os.str().find("fs.read_repairs"), std::string::npos);
}

TEST(MetricsRegistryTest, GaugesGoUpAndDownAndPersistByName) {
  MetricsRegistry registry;
  registry.Gauge("kv.queue/0") = 5;
  registry.Gauge("kv.queue/0") -= 2;
  registry.Gauge("kv.mem_bytes/1") += 300;
  EXPECT_EQ(registry.GaugeValue("kv.queue/0"), 3);
  EXPECT_EQ(registry.GaugeValue("kv.mem_bytes/1"), 300);
  EXPECT_EQ(registry.GaugeValue("never.touched"), 0);
  EXPECT_EQ(registry.gauges().size(), 2u);

  // References stay valid as later names rebalance the map.
  std::int64_t& queue = registry.Gauge("kv.queue/0");
  for (int i = 0; i < 64; ++i) registry.Gauge("g" + std::to_string(i)) = i;
  queue = -7;  // gauges may legitimately go negative on accounting bugs
  EXPECT_EQ(registry.GaugeValue("kv.queue/0"), -7);
}

TEST(MetricsRegistryTest, GaugeHelpersIgnoreNullTargets) {
  GaugeAdd(nullptr, 5);  // the uninstrumented path: one branch, no effect
  GaugeSet(nullptr, 5);
  MetricsRegistry registry;
  std::int64_t* gauge = &registry.Gauge("g");
  GaugeAdd(gauge, 5);
  GaugeAdd(gauge, -2);
  EXPECT_EQ(registry.GaugeValue("g"), 3);
  GaugeSet(gauge, 11);
  EXPECT_EQ(registry.GaugeValue("g"), 11);
}

TEST(MetricsRegistryTest, InstanceGaugeNameFormatsBaseSlashIndex) {
  EXPECT_EQ(InstanceGaugeName("kv.mem_bytes", 0), "kv.mem_bytes/0");
  EXPECT_EQ(InstanceGaugeName("io.queued", 17), "io.queued/17");
}

TEST(MetricsRegistryTest, NonzeroGaugesAppearInReport) {
  MetricsRegistry registry;
  registry.Gauge("fs.open_files/0") = 4;
  registry.Gauge("silent") = 0;
  std::ostringstream os;
  registry.Report(os);
  EXPECT_NE(os.str().find("fs.open_files/0"), std::string::npos);
  EXPECT_EQ(os.str().find("silent"), std::string::npos);
}

// --- End-to-end recording through the stack ---

TEST(MetricsIntegrationTest, MemFsAndKvOpsRecorded) {
  MetricsRegistry registry;
  workloads::TestbedConfig config = BedConfig(4);
  config.metrics = &registry;
  workloads::Testbed bed(workloads::FsKind::kMemFs, config);

  workloads::EnvelopeParams params;
  params.nodes = 4;
  params.file_size = MiB(1);
  params.files_per_proc = 2;
  workloads::EnvelopeBench bench(bed.simulation(), bed.vfs(), params,
                                 nullptr);
  (void)bench.RunWrite();
  (void)bench.RunRead11();

  EXPECT_EQ(registry.Histogram("vfs.create").count(), 8u);
  EXPECT_EQ(registry.Histogram("vfs.open").count(), 8u);
  EXPECT_GT(registry.Histogram("vfs.write").count(), 0u);
  EXPECT_GT(registry.Histogram("vfs.read").count(), 0u);
  EXPECT_GT(registry.Histogram("kv.set").count(), 0u);
  EXPECT_GT(registry.Histogram("kv.get").count(), 0u);
  // VFS reads include stripe fetches, so their latency dominates the raw
  // kv GET latency.
  EXPECT_GT(registry.Histogram("vfs.read").PercentileNanos(0.99),
            registry.Histogram("kv.get").PercentileNanos(0.5));
}

// --- The registry is digest-neutral ---

// What one write-then-read-back run left behind.
struct NeutralRun {
  std::uint64_t digest = 0;
  std::uint64_t events = 0;
  sim::SimTime now = 0;
};

// Create, two writes, flush and close from node 0; open, two reads and
// close from node 1: every instrumented vfs op, on a replicated deployment
// so each op fans out to several kv calls. Every call must succeed.
NeutralRun WriteReadBack(bool batching, MetricsRegistry* registry) {
  workloads::TestbedConfig config = BedConfig(4);
  config.memfs.replication = 2;
  config.memfs.io.batching = batching;
  config.metrics = registry;
  workloads::Testbed bed(workloads::FsKind::kMemFs, config);
  sim::Simulation& sim = bed.simulation();
  fs::Vfs& vfs = bed.vfs();
  const Bytes data = Bytes::Synthetic(KiB(512) * 3 + KiB(100), 5);

  auto created = Await(sim, vfs.Create({0, 0}, "/neutral"));
  EXPECT_TRUE(created.ok());
  if (!created.ok()) return {};
  EXPECT_TRUE(
      Await(sim, vfs.Write({0, 0}, *created, data.Slice(0, KiB(700)))).ok());
  EXPECT_TRUE(Await(sim, vfs.Write({0, 0}, *created,
                                   data.Slice(KiB(700),
                                              data.size() - KiB(700))))
                  .ok());
  EXPECT_TRUE(Await(sim, vfs.Flush({0, 0}, *created)).ok());
  EXPECT_TRUE(Await(sim, vfs.Close({0, 0}, *created)).ok());
  auto opened = Await(sim, vfs.Open({1, 0}, "/neutral"));
  EXPECT_TRUE(opened.ok());
  if (!opened.ok()) return {};
  auto first = Await(sim, vfs.Read({1, 0}, *opened, 0, MiB(1)));
  auto second = Await(sim, vfs.Read({1, 0}, *opened, MiB(1), MiB(1)));
  EXPECT_TRUE(Await(sim, vfs.Close({1, 0}, *opened)).ok());
  EXPECT_TRUE(first.ok() && second.ok());
  if (first.ok() && second.ok()) {
    Bytes back = *first;
    back.Append(*second);
    EXPECT_TRUE(back.ContentEquals(data));
  }
  return {sim.EventDigest(), sim.events_processed(), sim.now()};
}

void ExpectRegistryNeutral(bool batching) {
  const NeutralRun off = WriteReadBack(batching, nullptr);
  MetricsRegistry registry;
  const NeutralRun on = WriteReadBack(batching, &registry);
  EXPECT_EQ(on.digest, off.digest);
  EXPECT_EQ(on.events, off.events);
  EXPECT_EQ(on.now, off.now);
  // One sample per call issued, and no vfs op the test did not call.
  std::uint64_t vfs_samples = 0;
  for (const auto& [name, histogram] : registry.all()) {
    if (name.starts_with("vfs.")) vfs_samples += histogram.count();
  }
  EXPECT_EQ(registry.Histogram("vfs.create").count(), 1u);
  EXPECT_EQ(registry.Histogram("vfs.write").count(), 2u);
  EXPECT_EQ(registry.Histogram("vfs.flush").count(), 1u);
  EXPECT_EQ(registry.Histogram("vfs.open").count(), 1u);
  EXPECT_EQ(registry.Histogram("vfs.read").count(), 2u);
  EXPECT_EQ(registry.Histogram("vfs.close").count(), 2u);
  EXPECT_EQ(vfs_samples, 9u);
  EXPECT_GT(registry.Histogram("kv.set").count(), 0u);
}

TEST(RegistryNeutralityTest, BatchedWriteReadBackKeepsDigest) {
  ExpectRegistryNeutral(/*batching=*/true);
}

TEST(RegistryNeutralityTest, UnbatchedWriteReadBackKeepsDigest) {
  ExpectRegistryNeutral(/*batching=*/false);
}

// --- Flush (§3.2.2) ---

TEST(FlushTest, FlushDrainsInFlightStripesAndKeepsHandleWritable) {
  workloads::Testbed bed(workloads::FsKind::kMemFs, BedConfig(4));
  auto& sim = bed.simulation();
  fs::Vfs& vfs = bed.vfs();

  auto created = Await(sim, vfs.Create({0, 0}, "/flushy"));
  ASSERT_TRUE(created.ok());
  const Bytes part1 = Bytes::Synthetic(KiB(512) * 3, 1);
  ASSERT_TRUE(Await(sim, vfs.Write({0, 0}, created.value(), part1)).ok());
  ASSERT_TRUE(Await(sim, vfs.Flush({0, 0}, created.value())).ok());
  // After flush, all full stripes are on the servers.
  EXPECT_GE(bed.TotalMemoryUsed(), KiB(512) * 3);

  // The handle is still writable after flush.
  const Bytes part2 = Bytes::Synthetic(KiB(512) * 3, 1).Slice(0, 0);
  ASSERT_TRUE(
      Await(sim, vfs.Write({0, 0}, created.value(),
                           Bytes::Synthetic(KiB(100), 2)))
          .ok());
  ASSERT_TRUE(Await(sim, vfs.Close({0, 0}, created.value())).ok());

  auto info = Await(sim, vfs.Stat({1, 0}, "/flushy"));
  ASSERT_TRUE(info.ok());
  EXPECT_EQ(info->size, KiB(512) * 3 + KiB(100));
}

TEST(FlushTest, FlushOnReadHandleIsNoOp) {
  workloads::Testbed bed(workloads::FsKind::kMemFs, BedConfig(2));
  auto& sim = bed.simulation();
  fs::Vfs& vfs = bed.vfs();

  auto created = Await(sim, vfs.Create({0, 0}, "/ro"));
  ASSERT_TRUE(created.ok());
  (void)Await(sim, vfs.Write({0, 0}, created.value(), Bytes::Copy("x")));
  ASSERT_TRUE(Await(sim, vfs.Close({0, 0}, created.value())).ok());

  auto opened = Await(sim, vfs.Open({1, 0}, "/ro"));
  ASSERT_TRUE(opened.ok());
  EXPECT_TRUE(Await(sim, vfs.Flush({1, 0}, opened.value())).ok());
  (void)Await(sim, vfs.Close({1, 0}, opened.value()));
}

TEST(FlushTest, FlushBadHandleRejected) {
  workloads::Testbed bed(workloads::FsKind::kMemFs, BedConfig(2));
  EXPECT_EQ(Await(bed.simulation(), bed.vfs().Flush({0, 0}, 12345)).code(),
            ErrorCode::kBadHandle);
}

TEST(FlushTest, AmfsFlushIsAccepted) {
  workloads::Testbed bed(workloads::FsKind::kAmfs, BedConfig(2));
  auto& sim = bed.simulation();
  fs::Vfs& vfs = bed.vfs();
  auto created = Await(sim, vfs.Create({0, 0}, "/af"));
  ASSERT_TRUE(created.ok());
  EXPECT_TRUE(Await(sim, vfs.Flush({0, 0}, created.value())).ok());
  (void)Await(sim, vfs.Close({0, 0}, created.value()));
}

}  // namespace
}  // namespace memfs
