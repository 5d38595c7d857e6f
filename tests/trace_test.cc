// Tests for the tracing subsystem: tracer core (ids, parenting, ring
// bounds, null no-op), ScopedSpan lifetime, Chrome export, critical-path
// extraction, and end-to-end span trees recorded through the MemFS stack.
#include <algorithm>
#include <sstream>
#include <unordered_map>
#include <vector>

#include <gtest/gtest.h>

#include "common/units.h"
#include "test_util.h"
#include "testbed_fixture.h"
#include "trace/critical_path.h"
#include "trace/export.h"
#include "trace/trace.h"

namespace memfs::trace {
namespace {

using memfs::testing::Await;
using memfs::testing::BedConfig;
using units::KiB;
using units::MiB;

// --- Tracer core ---

TEST(TracerTest, IdsAndParentage) {
  sim::Simulation sim;
  Tracer tracer(sim);

  const TraceContext root = tracer.StartTrace("op", "vfs", 3);
  EXPECT_TRUE(root.active());
  EXPECT_EQ(root.trace_id, 1u);
  EXPECT_EQ(root.span_id, 1u);
  EXPECT_EQ(root.node, 3u);

  const TraceContext child = Child(root, "inner", "kv");
  EXPECT_EQ(child.trace_id, root.trace_id);
  EXPECT_EQ(child.span_id, 2u);
  EXPECT_EQ(child.node, 3u);  // inherited
  const TraceContext remote = ChildOn(root, "server", "net", 7);
  EXPECT_EQ(remote.node, 7u);

  EXPECT_EQ(tracer.open_spans(), 3u);
  End(child);
  End(remote);
  End(root);
  EXPECT_EQ(tracer.open_spans(), 0u);
  ASSERT_EQ(tracer.finished().size(), 3u);
  // Finished in EndSpan order; parent ids recorded.
  EXPECT_EQ(tracer.finished()[0].name, "inner");
  EXPECT_EQ(tracer.finished()[0].parent_id, root.span_id);
  EXPECT_EQ(tracer.finished()[2].parent_id, 0u);

  // A second trace gets a fresh trace id but the span counter continues.
  const TraceContext next = tracer.StartTrace("op2", "vfs");
  EXPECT_EQ(next.trace_id, 2u);
  EXPECT_GT(next.span_id, root.span_id);
  End(next);
}

TEST(TracerTest, TimestampsComeFromSimClock) {
  sim::Simulation sim;
  Tracer tracer(sim);
  const TraceContext root = tracer.StartTrace("op", "vfs");
  bool done = false;
  [](sim::Simulation& s, TraceContext parent, bool& flag) -> sim::Task {
    co_await s.Delay(100);
    ScopedSpan span(parent, "step", "kv");
    Event(span.context(), "mark");
    co_await s.Delay(50);
    flag = true;
  }(sim, root, done);
  sim.Run();
  ASSERT_TRUE(done);
  End(root);

  ASSERT_EQ(tracer.finished().size(), 2u);
  const SpanRecord& step = tracer.finished()[0];
  EXPECT_EQ(step.start, 100u);
  EXPECT_EQ(step.end, 150u);
  ASSERT_EQ(step.events.size(), 1u);
  EXPECT_EQ(step.events[0].name, "mark");
  EXPECT_EQ(step.events[0].when, 100u);
}

TEST(TracerTest, NullContextIsInertEverywhere) {
  const TraceContext null_ctx;
  EXPECT_FALSE(null_ctx.active());
  // None of these may touch a tracer (there is none) or crash.
  const TraceContext child = Child(null_ctx, "x", "y");
  EXPECT_FALSE(child.active());
  End(child);
  Event(null_ctx, "e");
  Annotate(null_ctx, "k", "v");
  ScopedSpan span(null_ctx, "x", "y");
  EXPECT_FALSE(span.context().active());
}

TEST(TracerTest, FinishedRingDropsOldest) {
  sim::Simulation sim;
  TracerConfig config;
  config.max_finished_spans = 4;
  Tracer tracer(sim, config);
  const TraceContext root = tracer.StartTrace("root", "vfs");
  for (int i = 0; i < 10; ++i) End(Child(root, "c" + std::to_string(i), "kv"));
  End(root);

  EXPECT_EQ(tracer.finished().size(), 4u);
  EXPECT_EQ(tracer.dropped_spans(), 7u);  // 11 finished, ring of 4
  EXPECT_EQ(tracer.spans_started(), 11u);
  // The newest spans survive: the ring keeps the last four to end
  // (c7, c8, c9, root).
  EXPECT_EQ(tracer.finished().back().name, "root");
  EXPECT_EQ(tracer.finished().front().name, "c7");
}

TEST(TracerTest, EndingUnknownOrEndedSpanIsNoOp) {
  sim::Simulation sim;
  Tracer tracer(sim);
  const TraceContext root = tracer.StartTrace("root", "vfs");
  End(root);
  End(root);  // double end
  TraceContext bogus = root;
  bogus.span_id = 999;
  End(bogus);
  Event(root, "late");          // after end: dropped
  Annotate(root, "late", "x");  // after end: dropped
  EXPECT_EQ(tracer.finished().size(), 1u);
  EXPECT_TRUE(tracer.finished()[0].events.empty());
  EXPECT_TRUE(tracer.finished()[0].args.empty());
}

TEST(TracerTest, SerializeIsDeterministic) {
  auto run = [] {
    sim::Simulation sim;
    Tracer tracer(sim);
    const TraceContext root = tracer.StartTrace("root", "workflow");
    TraceContext child = Child(root, "leg", "net");
    Annotate(child, "bytes", "512");
    Event(child, "sent");
    End(child);
    End(root);
    std::ostringstream os;
    WriteChromeTrace(os, tracer);
    return os.str();
  };
  const std::string first = run();
  EXPECT_EQ(first, run());
  EXPECT_NE(first.find("\"name\":\"leg\""), std::string::npos);
  EXPECT_NE(first.find("\"bytes\":\"512\""), std::string::npos);
}

TEST(ScopedSpanTest, MoveTransfersOwnership) {
  sim::Simulation sim;
  Tracer tracer(sim);
  const TraceContext root = tracer.StartTrace("root", "vfs");
  {
    ScopedSpan outer(root, "a", "kv");
    ScopedSpan moved = std::move(outer);
    EXPECT_TRUE(moved.context().active());
    EXPECT_EQ(tracer.open_spans(), 2u);  // root + a (not double-opened)
    moved.Close();
    moved.Close();  // idempotent
    EXPECT_EQ(tracer.open_spans(), 1u);
  }
  ScopedSpan adopted = ScopedSpan::Adopt(Child(root, "b", "kv"));
  EXPECT_EQ(tracer.open_spans(), 2u);
  adopted.Close();
  End(root);
  EXPECT_EQ(tracer.open_spans(), 0u);
}

// --- Chrome export ---

TEST(ChromeExportTest, EmitsWellFormedEvents) {
  sim::Simulation sim;
  Tracer tracer(sim);
  const TraceContext root = tracer.StartTrace("root", "workflow", 0);
  TraceContext leg = ChildOn(root, "net \"leg\"\n", "net", 2);  // escaping
  Annotate(leg, "bytes", "512");
  Event(leg, "sent");
  End(leg);
  // A control character without a short escape is kept as \u00XX, not lost.
  End(ChildOn(root, "bell\x07", "net", 2));
  End(root);

  std::ostringstream os;
  WriteChromeTrace(os, tracer);
  const std::string json = os.str();

  // Braces and brackets balance (all strings are escaped, so a raw scan is
  // exact for this exporter's output).
  int depth = 0;
  int min_depth = 0;
  for (char c : json) {
    if (c == '{' || c == '[') ++depth;
    if (c == '}' || c == ']') --depth;
    min_depth = std::min(min_depth, depth);
  }
  EXPECT_EQ(depth, 0);
  EXPECT_GE(min_depth, 0);

  EXPECT_NE(json.find("\"traceEvents\""), std::string::npos);
  EXPECT_NE(json.find("\"ph\":\"X\""), std::string::npos);
  EXPECT_NE(json.find("\"ph\":\"i\""), std::string::npos);      // span event
  EXPECT_NE(json.find("process_name"), std::string::npos);      // pid naming
  EXPECT_NE(json.find("\\\"leg\\\"\\n"), std::string::npos);    // escaped
  EXPECT_NE(json.find("\"bytes\":\"512\""), std::string::npos); // annotation
  EXPECT_NE(json.find("\"bell\\u0007\""), std::string::npos);  // no loss
  EXPECT_EQ(json.find('\t'), std::string::npos);
}

TEST(ChromeExportTest, OverlappingSpansLandInSeparateLanes) {
  sim::Simulation sim;
  Tracer tracer(sim);
  const TraceContext root = tracer.StartTrace("root", "workflow", 0);
  // Two siblings whose intervals cross (neither contains the other): no
  // single lane can hold both as Chrome "X" events, so the exporter must
  // spill the second onto a fresh lane.
  bool done = false;
  [](sim::Simulation& s, TraceContext parent, bool& flag) -> sim::Task {
    TraceContext a = Child(parent, "a", "net");  // [0, 10]
    co_await s.Delay(5);
    TraceContext b = Child(parent, "b", "net");  // [5, 15] crosses a
    co_await s.Delay(5);
    End(a);
    co_await s.Delay(5);
    End(b);
    flag = true;
  }(sim, root, done);
  sim.Run();
  ASSERT_TRUE(done);
  End(root);

  std::ostringstream os;
  WriteChromeTrace(os, tracer);
  const std::string json = os.str();
  EXPECT_NE(json.find("\"tid\":0"), std::string::npos);
  EXPECT_NE(json.find("\"tid\":1"), std::string::npos);
}

// --- Critical path ---

TEST(CriticalPathTest, TilesRootWindowAndAttributesSelfTime) {
  std::deque<SpanRecord> spans;
  auto add = [&spans](SpanId id, SpanId parent, const char* name,
                      const char* category, sim::SimTime start,
                      sim::SimTime end) {
    SpanRecord r;
    r.trace_id = 1;
    r.span_id = id;
    r.parent_id = parent;
    r.name = name;
    r.category = category;
    r.start = start;
    r.end = end;
    spans.push_back(r);
  };
  add(1, 0, "root", "workflow", 0, 100);
  add(2, 1, "compute", "compute", 10, 60);
  add(3, 1, "transfer", "net", 55, 90);  // overlaps compute; gates later
  add(4, 3, "service", "kv", 60, 70);    // inner chunk of the transfer

  const CriticalPath path = ExtractCriticalPath(spans, 1);
  ASSERT_TRUE(path.found);
  EXPECT_EQ(path.window_start, 0u);
  EXPECT_EQ(path.window_end, 100u);
  EXPECT_EQ(path.attributed, 100u);
  EXPECT_DOUBLE_EQ(path.AttributedFraction(), 1.0);

  // Segments tile the window in time order with no gaps.
  ASSERT_FALSE(path.segments.empty());
  EXPECT_EQ(path.segments.front().begin, 0u);
  EXPECT_EQ(path.segments.back().end, 100u);
  for (std::size_t i = 1; i < path.segments.size(); ++i) {
    EXPECT_EQ(path.segments[i].begin, path.segments[i - 1].end);
  }

  // Walking backward from 100: root self [90,100], transfer [70,90], kv
  // service [60,70], transfer [55,60], compute [10,55], root self [0,10].
  std::unordered_map<std::string, sim::SimTime> by_name;
  for (const auto& share : path.by_name) by_name[share.label] = share.nanos;
  EXPECT_EQ(by_name["root"], 20u);
  EXPECT_EQ(by_name["compute"], 45u);
  EXPECT_EQ(by_name["transfer"], 25u);
  EXPECT_EQ(by_name["service"], 10u);
}

TEST(CriticalPathTest, MissingRootReportsNotFound) {
  std::deque<SpanRecord> spans;
  const CriticalPath empty = ExtractCriticalPath(spans, 1);
  EXPECT_FALSE(empty.found);

  SpanRecord orphan;
  orphan.trace_id = 2;
  orphan.span_id = 5;
  orphan.parent_id = 4;  // parent never finished / dropped
  orphan.start = 0;
  orphan.end = 10;
  spans.push_back(orphan);
  EXPECT_FALSE(ExtractCriticalPath(spans, 1).found);
}

TEST(CriticalPathTest, PrintCoversLayerTable) {
  std::deque<SpanRecord> spans;
  SpanRecord root;
  root.trace_id = 1;
  root.span_id = 1;
  root.name = "root";
  root.category = "workflow";
  root.start = 0;
  root.end = units::Millis(10);
  spans.push_back(root);
  const CriticalPath path = ExtractCriticalPath(spans, 1);
  std::ostringstream os;
  PrintCriticalPath(os, path);
  EXPECT_NE(os.str().find("workflow"), std::string::npos);
  EXPECT_NE(os.str().find("100.0"), std::string::npos);  // full attribution
}

// --- End-to-end through the storage stack ---

class TraceStackTest : public ::testing::Test {
 protected:
  static constexpr std::uint32_t kNodes = 4;

  // Writes and reads back one file under a traced root span.
  void RunTracedRoundTrip(const std::string& path, std::uint64_t size) {
    const TraceContext root = tracer_->StartTrace("round_trip", "task");
    const fs::VfsContext ctx{0, 0, root};
    auto created = Await(sim_, fs_->Create(ctx, path));
    ASSERT_TRUE(created.ok());
    ASSERT_TRUE(Await(sim_, fs_->Write(ctx, created.value(),
                                       Bytes::Synthetic(size, 1)))
                    .ok());
    ASSERT_TRUE(Await(sim_, fs_->Close(ctx, created.value())).ok());

    const fs::VfsContext reader{1, 0, root};
    auto opened = Await(sim_, fs_->Open(reader, path));
    ASSERT_TRUE(opened.ok());
    auto back = Await(sim_, fs_->Read(reader, opened.value(), 0, size));
    ASSERT_TRUE(back.ok());
    ASSERT_TRUE(Await(sim_, fs_->Close(reader, opened.value())).ok());
    End(root);
  }

  workloads::Testbed bed_{workloads::FsKind::kMemFs, BedConfig(kNodes)};
  sim::Simulation& sim_ = bed_.simulation();
  fs::MemFs* fs_ = bed_.memfs();
  std::unique_ptr<Tracer> tracer_ = std::make_unique<Tracer>(sim_);
};

TEST_F(TraceStackTest, VfsOpsDecomposeIntoLayeredSpans) {
  RunTracedRoundTrip("/traced", MiB(1) + KiB(64));
  EXPECT_EQ(tracer_->open_spans(), 0u);

  std::unordered_map<SpanId, const SpanRecord*> by_id;
  for (const auto& span : tracer_->finished()) by_id[span.span_id] = &span;

  // Every layer the ISSUE names shows up.
  auto count_category = [this](const std::string& cat) {
    std::size_t n = 0;
    for (const auto& span : tracer_->finished()) n += span.category == cat;
    return n;
  };
  EXPECT_GT(count_category("vfs"), 0u);
  EXPECT_GT(count_category("striper"), 0u);
  EXPECT_GT(count_category("kv"), 0u);
  EXPECT_GT(count_category("kv.attempt"), 0u);
  EXPECT_GT(count_category("kv.service"), 0u);
  EXPECT_GT(count_category("net"), 0u);

  // Spans nest: each net leg's ancestry climbs net -> kv.attempt -> kv ->
  // (striper ->) vfs -> task root, within one trace.
  std::size_t verified = 0;
  for (const auto& span : tracer_->finished()) {
    if (span.category != "net") continue;
    std::vector<std::string> chain;
    const SpanRecord* cursor = &span;
    while (cursor->parent_id != 0) {
      auto it = by_id.find(cursor->parent_id);
      ASSERT_NE(it, by_id.end()) << "broken parent chain at " << cursor->name;
      cursor = it->second;
      chain.push_back(cursor->category);
    }
    EXPECT_EQ(chain.front(), "kv.attempt");
    EXPECT_EQ(chain.back(), "task");
    EXPECT_NE(std::find(chain.begin(), chain.end(), "kv"), chain.end());
    EXPECT_NE(std::find(chain.begin(), chain.end(), "vfs"), chain.end());
    ++verified;
  }
  EXPECT_GT(verified, 0u);

  // A child never starts before its parent. (It may end after it: buffered
  // stripe flushes are detached children that outlive the vfs.write span,
  // which only waited for buffer admission.)
  for (const auto& span : tracer_->finished()) {
    if (span.parent_id == 0) continue;
    auto it = by_id.find(span.parent_id);
    if (it == by_id.end()) continue;
    EXPECT_GE(span.start, it->second->start) << span.name;
  }

  // The critical path of the round trip attributes its whole window.
  const CriticalPath path = ExtractCriticalPath(*tracer_, 1);
  ASSERT_TRUE(path.found);
  EXPECT_DOUBLE_EQ(path.AttributedFraction(), 1.0);
}

TEST_F(TraceStackTest, ServerSideSpansCarryTheServerNode) {
  RunTracedRoundTrip("/nodes", KiB(900));
  bool remote_service = false;
  for (const auto& span : tracer_->finished()) {
    if (span.category == "kv.service" && span.node != 0) {
      remote_service = true;
    }
  }
  // 1 MiB-ish striped over 4 servers: some service time lands off node 0.
  EXPECT_TRUE(remote_service);
}

TEST_F(TraceStackTest, TracingDoesNotPerturbTheSimulation) {
  auto digest_of = [](bool traced) {
    workloads::Testbed bed(workloads::FsKind::kMemFs, BedConfig(2));
    sim::Simulation& sim = bed.simulation();
    fs::MemFs& fs = *bed.memfs();
    Tracer tracer(sim);
    TraceContext root;
    if (traced) root = tracer.StartTrace("write", "task");
    const fs::VfsContext ctx{0, 0, root};
    auto created = Await(sim, fs.Create(ctx, "/d"));
    EXPECT_TRUE(created.ok());
    EXPECT_TRUE(
        Await(sim, fs.Write(ctx, created.value(), Bytes::Synthetic(MiB(1), 1)))
            .ok());
    EXPECT_TRUE(Await(sim, fs.Close(ctx, created.value())).ok());
    End(root);
    return sim.EventDigest();
  };
  EXPECT_EQ(digest_of(true), digest_of(false));
}

}  // namespace
}  // namespace memfs::trace
