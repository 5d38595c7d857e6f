// Runs the semantic analyzer (tools/analyze) over crafted in-memory
// translation units: every rule family gets a positive, a negative and a
// suppressed fixture, plus the cross-TU cases (lock-order cycle split over
// two files, held-reacquire through a call edge, transitive blocking and
// sink reachability).
#include <string>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "analyze/analyzer.h"

namespace {

using memfs::analyze::Analyzer;
using memfs::analyze::Finding;

std::vector<Finding> Analyze(
    const std::vector<std::pair<std::string, std::string>>& files,
    bool include_suppressed = false) {
  Analyzer analyzer;
  for (const auto& [path, contents] : files) {
    analyzer.AddSource(path, contents);
  }
  return analyzer.Run(include_suppressed);
}

int CountRule(const std::vector<Finding>& findings, const std::string& rule) {
  int n = 0;
  for (const Finding& f : findings) {
    if (f.rule == rule) ++n;
  }
  return n;
}

const Finding* FindRule(const std::vector<Finding>& findings,
                        const std::string& rule) {
  for (const Finding& f : findings) {
    if (f.rule == rule) return &f;
  }
  return nullptr;
}

// --- lock-order -----------------------------------------------------------

TEST(AnalyzeLockOrderTest, CrossTuCycleNamesBothAcquisitionSites) {
  const std::string tu_a = R"cc(
    sim::Task LockAThenB(sim::Semaphore& alpha, sim::Semaphore& beta) {
      co_await alpha.Acquire();
      co_await beta.Acquire();
      beta.Release();
      alpha.Release();
    }
  )cc";
  const std::string tu_b = R"cc(
    sim::Task LockBThenA(sim::Semaphore& alpha, sim::Semaphore& beta) {
      co_await beta.Acquire();
      co_await alpha.Acquire();
      alpha.Release();
      beta.Release();
    }
  )cc";
  const auto findings =
      Analyze({{"deadlock_a.cc", tu_a}, {"deadlock_b.cc", tu_b}});
  ASSERT_EQ(CountRule(findings, "lock-order"), 1);
  const Finding* cycle = FindRule(findings, "lock-order");
  // The report must name the acquisition site on each edge — one per TU.
  EXPECT_NE(cycle->message.find("deadlock_a.cc:"), std::string::npos)
      << cycle->message;
  EXPECT_NE(cycle->message.find("deadlock_b.cc:"), std::string::npos)
      << cycle->message;
  EXPECT_NE(cycle->message.find("'alpha'"), std::string::npos);
  EXPECT_NE(cycle->message.find("'beta'"), std::string::npos);
}

TEST(AnalyzeLockOrderTest, ConsistentOrderAcrossTusIsClean) {
  const std::string tu_a = R"cc(
    sim::Task FirstUser(sim::Semaphore& alpha, sim::Semaphore& beta) {
      co_await alpha.Acquire();
      co_await beta.Acquire();
      beta.Release();
      alpha.Release();
    }
  )cc";
  const std::string tu_b = R"cc(
    sim::Task SecondUser(sim::Semaphore& alpha, sim::Semaphore& beta) {
      co_await alpha.Acquire();
      co_await beta.Acquire();
      beta.Release();
      alpha.Release();
    }
  )cc";
  const auto findings = Analyze({{"ok_a.cc", tu_a}, {"ok_b.cc", tu_b}});
  EXPECT_EQ(CountRule(findings, "lock-order"), 0);
}

// --- coroutine safety: await-held-lock ------------------------------------

TEST(AnalyzeAwaitHeldLockTest, AwaitUnderExclusiveLockIsFlagged) {
  const std::string tu = R"cc(
    sim::Task MoveKey(kv::HandoffGate& gate, sim::Simulation& sim) {
      co_await gate.Lock(key);
      co_await sim.Delay(10);
      gate.Unlock(key);
    }
  )cc";
  EXPECT_EQ(CountRule(Analyze({{"g.cc", tu}}), "await-held-lock"), 1);
}

TEST(AnalyzeAwaitHeldLockTest, SharedWriterSectionIsNotExclusive) {
  const std::string tu = R"cc(
    sim::Task WriteKey(kv::HandoffGate& gate, sim::Simulation& sim) {
      co_await gate.EnterWriter(key);
      co_await sim.Delay(10);
      gate.ExitWriter(key);
    }
  )cc";
  EXPECT_EQ(CountRule(Analyze({{"g.cc", tu}}), "await-held-lock"), 0);
}

TEST(AnalyzeAwaitHeldLockTest, SuppressionIsHonoredAndCounted) {
  const std::string tu = R"cc(
    sim::Task MoveKey(kv::HandoffGate& gate, sim::Simulation& sim) {
      co_await gate.Lock(key);
      // lint: allow(await-held-lock) exercising the gate on purpose
      co_await sim.Delay(10);
      gate.Unlock(key);
    }
  )cc";
  EXPECT_EQ(CountRule(Analyze({{"g.cc", tu}}), "await-held-lock"), 0);
  const auto all = Analyze({{"g.cc", tu}}, /*include_suppressed=*/true);
  ASSERT_EQ(CountRule(all, "await-held-lock"), 1);
  EXPECT_TRUE(FindRule(all, "await-held-lock")->suppressed);
}

// --- coroutine safety: held-reacquire -------------------------------------

TEST(AnalyzeHeldReacquireTest, DirectDoubleAcquireIsFlagged) {
  const std::string tu = R"cc(
    sim::Task Doubled(sim::Semaphore& slots) {
      co_await slots.Acquire();
      co_await slots.Acquire();
      slots.Release();
      slots.Release();
    }
  )cc";
  EXPECT_EQ(CountRule(Analyze({{"d.cc", tu}}), "held-reacquire"), 1);
}

TEST(AnalyzeHeldReacquireTest, ReacquireThroughCrossTuCallIsFlagged) {
  const std::string outer = R"cc(
    sim::Task Outer(sim::Semaphore& slots) {
      co_await slots.Acquire();
      co_await InnerStep(slots);
      slots.Release();
    }
  )cc";
  const std::string inner = R"cc(
    sim::Task InnerStep(sim::Semaphore& slots) {
      co_await slots.Acquire();
      slots.Release();
    }
  )cc";
  const auto findings =
      Analyze({{"outer.cc", outer}, {"inner.cc", inner}});
  ASSERT_EQ(CountRule(findings, "held-reacquire"), 1);
  const Finding* f = FindRule(findings, "held-reacquire");
  EXPECT_EQ(f->file, "outer.cc");
  // The message names the remote acquisition site.
  EXPECT_NE(f->message.find("inner.cc:"), std::string::npos) << f->message;
}

TEST(AnalyzeHeldReacquireTest, AcquireAfterReleaseIsClean) {
  const std::string tu = R"cc(
    sim::Task Sequential(sim::Semaphore& slots) {
      co_await slots.Acquire();
      slots.Release();
      co_await slots.Acquire();
      slots.Release();
    }
  )cc";
  EXPECT_EQ(CountRule(Analyze({{"s.cc", tu}}), "held-reacquire"), 0);
}

// --- coroutine safety: locked-return --------------------------------------

TEST(AnalyzeLockedReturnTest, EarlyReturnWhileHeldIsFlagged) {
  const std::string tu = R"cc(
    sim::Task Leaky(sim::Semaphore& slots, bool bail) {
      co_await slots.Acquire();
      if (bail) co_return;
      slots.Release();
    }
  )cc";
  EXPECT_EQ(CountRule(Analyze({{"l.cc", tu}}), "locked-return"), 1);
}

TEST(AnalyzeLockedReturnTest, ReleaseOnEveryPathIsClean) {
  const std::string tu = R"cc(
    sim::Task Tidy(sim::Semaphore& slots, bool bail) {
      co_await slots.Acquire();
      if (bail) {
        slots.Release();
        co_return;
      }
      slots.Release();
    }
  )cc";
  EXPECT_EQ(CountRule(Analyze({{"t.cc", tu}}), "locked-return"), 0);
}

// --- coroutine safety: await-in-conditional -------------------------------

TEST(AnalyzeAwaitInConditionalTest, AwaitingArmChoiceIsFlagged) {
  // The shape GCC 12 double-frees: one finding per conditional, at its
  // first await; an await in the condition counts too.
  const std::string tu = R"cc(
    sim::Future<Result<Attr>> Lookup(Client* client, Store& store,
                                     std::string path) {
      co_return client != nullptr ? co_await client->Resolve(path)
                                  : ToAttr(co_await store.Get(path));
    }
    sim::Future<int> Pick(Store& store) {
      const int n = (co_await store.Ready()) ? 1 : 2;
      co_return n;
    }
  )cc";
  const auto findings = Analyze({{"c.cc", tu}});
  ASSERT_EQ(CountRule(findings, "await-in-conditional"), 2);
  EXPECT_EQ(FindRule(findings, "await-in-conditional")->line, 4);
}

TEST(AnalyzeAwaitInConditionalTest, IfElseArmChoiceIsClean) {
  // The same choice awaited into locals, and conditionals that only build
  // an awaited call's arguments, follow an awaiting statement or hold an
  // awaiting lambda body.
  const std::string tu = R"cc(
    sim::Future<Result<Attr>> Lookup(Client* client, Store& store,
                                     std::string path) {
      Result<Attr> attr = Attr{};
      if (client != nullptr) {
        attr = co_await client->Resolve(path);
      } else {
        Result<Bytes> record = co_await store.Get(path);
        attr = ToAttr(record);
      }
      co_await store.Reclaim(attr->ino != 0 ? Ident(attr->ino) : path);
      if (co_await store.Ready()) { Log(); }
      attr.ok() ? Log() : Skip();
      auto task = attr.ok() ? [&]() -> sim::Task { co_await store.Sync(); }
                            : Noop();
      co_return attr;
    }
  )cc";
  EXPECT_EQ(CountRule(Analyze({{"c.cc", tu}}), "await-in-conditional"), 0);
}

// --- coroutine safety: blocking-call --------------------------------------

TEST(AnalyzeBlockingCallTest, DirectWallClockSleepInCoroutine) {
  const std::string tu = R"cc(
    sim::Task Stalls(sim::Simulation& sim) {
      co_await sim.Delay(1);
      std::this_thread::sleep_for(std::chrono::seconds(1));
    }
  )cc";
  EXPECT_EQ(CountRule(Analyze({{"b.cc", tu}}), "blocking-call"), 1);
}

TEST(AnalyzeBlockingCallTest, TransitiveBlockingThroughHelperTu) {
  const std::string helper = R"cc(
    void SpinDown() {
      std::this_thread::sleep_for(std::chrono::seconds(1));
    }
  )cc";
  const std::string coro = R"cc(
    sim::Task Stalls(sim::Simulation& sim) {
      co_await sim.Delay(1);
      SpinDown();
    }
  )cc";
  const auto findings = Analyze({{"helper.cc", helper}, {"coro.cc", coro}});
  ASSERT_EQ(CountRule(findings, "blocking-call"), 1);
  const Finding* f = FindRule(findings, "blocking-call");
  EXPECT_EQ(f->file, "coro.cc");
  EXPECT_NE(f->message.find("helper.cc:"), std::string::npos) << f->message;
}

TEST(AnalyzeBlockingCallTest, SimulatedDelayIsClean) {
  const std::string tu = R"cc(
    sim::Task Waits(sim::Simulation& sim) {
      co_await sim.Delay(1);
    }
  )cc";
  EXPECT_EQ(CountRule(Analyze({{"w.cc", tu}}), "blocking-call"), 0);
}

// --- determinism: unordered-sink ------------------------------------------

TEST(AnalyzeUnorderedSinkTest, UnorderedIterationFeedingDigestIsFlagged) {
  const std::string tu = R"cc(
    std::unordered_map<std::string, int> counters;
    void Emit(Bytes& digest) {
      for (const auto& kv : counters) {
        digest.Append(kv.first);
      }
    }
  )cc";
  EXPECT_EQ(CountRule(Analyze({{"u.cc", tu}}), "unordered-sink"), 1);
}

TEST(AnalyzeUnorderedSinkTest, CoAwaitInsideUnorderedLoopIsASink) {
  const std::string tu = R"cc(
    std::unordered_set<std::string> peers;
    sim::Task Broadcast(Cluster& cluster) {
      for (const auto& peer : peers) {
        co_await cluster.Ping(peer);
      }
    }
  )cc";
  EXPECT_EQ(CountRule(Analyze({{"p.cc", tu}}), "unordered-sink"), 1);
}

TEST(AnalyzeUnorderedSinkTest, SinkReachedThroughOneCallIsFlagged) {
  const std::string helper = R"cc(
    void Record(Bytes& digest, const std::string& key) {
      digest.Append(key);
    }
  )cc";
  const std::string loop = R"cc(
    std::unordered_map<std::string, int> counters;
    void Emit(Bytes& digest) {
      for (const auto& kv : counters) {
        Record(digest, kv.first);
      }
    }
  )cc";
  const auto findings = Analyze({{"rec.cc", helper}, {"emit.cc", loop}});
  EXPECT_EQ(CountRule(findings, "unordered-sink"), 1);
}

TEST(AnalyzeUnorderedSinkTest, PureAggregationOverUnorderedIsClean) {
  const std::string tu = R"cc(
    std::unordered_map<std::string, int> counters;
    int Total() {
      int sum = 0;
      for (const auto& kv : counters) {
        sum += kv.second;
      }
      return sum;
    }
  )cc";
  EXPECT_EQ(CountRule(Analyze({{"t.cc", tu}}), "unordered-sink"), 0);
}

TEST(AnalyzeUnorderedSinkTest, OrderedMapFeedingDigestIsClean) {
  const std::string tu = R"cc(
    std::map<std::string, int> counters;
    void Emit(Bytes& digest) {
      for (const auto& kv : counters) {
        digest.Append(kv.first);
      }
    }
  )cc";
  EXPECT_EQ(CountRule(Analyze({{"m.cc", tu}}), "unordered-sink"), 0);
}

TEST(AnalyzeUnorderedSinkTest, SuppressionIsHonored) {
  const std::string tu = R"cc(
    std::unordered_map<std::string, int> counters;
    void Emit(Bytes& digest) {
      // lint: allow(unordered-sink) digest is order-insensitive here
      for (const auto& kv : counters) {
        digest.Append(kv.first);
      }
    }
  )cc";
  EXPECT_EQ(CountRule(Analyze({{"u.cc", tu}}), "unordered-sink"), 0);
  EXPECT_EQ(CountRule(Analyze({{"u.cc", tu}}, true), "unordered-sink"), 1);
}

// The kv object store is a project hash table, not a std::unordered_*, and
// iterates in hash order all the same: walking it into a sink is flagged,
// while KvServer::Keys()'s walk into a sorted copy is clean.
TEST(AnalyzeUnorderedSinkTest, ObjectTableIterationFeedingDigestIsFlagged) {
  const std::string tu = R"cc(
    class KvServer {
      ObjectTable store_;
    };
    void KvServer::Emit(Bytes& digest) const {
      for (const ObjectTable::Object& object : store_) {
        digest.Append(object.value);
      }
    }
    std::vector<std::string> KvServer::Keys() const {
      std::vector<std::string> keys;
      for (const ObjectTable::Object& object : store_) {
        keys.push_back(store_.Key(object));
      }
      std::sort(keys.begin(), keys.end());
      return keys;
    }
  )cc";
  const auto findings = Analyze({{"kv_server.cc", tu}});
  ASSERT_EQ(CountRule(findings, "unordered-sink"), 1);
  EXPECT_NE(FindRule(findings, "unordered-sink")->message.find("store_"),
            std::string::npos);
}

// Regression fixture for the FluidNetwork::Reallocate() hazard removed by
// the slot-vector refactor (ISSUE 9): per-flow rate recomputation iterating
// a std::unordered_map of active flows. The historical code escaped this
// rule only because the loop body was a pure per-flow write whose consumers
// (the min() in the completion rescheduling) were order-independent; the
// moment the rescheduling call is reachable from the loop body — the
// natural next edit — the iteration order becomes part of the event stream.
// This fixture pins that shape as flagged, one call deep, cross-TU.
TEST(AnalyzeUnorderedSinkTest, FlowMapIterationReachingRescheduleIsFlagged) {
  const std::string sched = R"cc(
    void ScheduleNextCompletion(sim::Simulation& sim, double eta) {
      sim.ScheduleAt(eta, FinishDueFlows);
    }
  )cc";
  const std::string net = R"cc(
    std::unordered_map<std::uint64_t, Flow> active_;
    void Reallocate(sim::Simulation& sim) {
      for (auto& [id, flow] : active_) {
        flow.rate = ShareOf(flow);
        ScheduleNextCompletion(sim, flow.remaining / flow.rate);
      }
    }
  )cc";
  const auto findings = Analyze({{"sched.cc", sched}, {"net.cc", net}});
  ASSERT_EQ(CountRule(findings, "unordered-sink"), 1);
  const Finding* f = FindRule(findings, "unordered-sink");
  EXPECT_EQ(f->file, "net.cc");
  EXPECT_NE(f->message.find("ScheduleNextCompletion"), std::string::npos)
      << f->message;
}

// The post-refactor shape — the same recomputation walking a dense slot
// vector — is clean even with the rescheduling call in the loop body:
// vector iteration order is deterministic.
TEST(AnalyzeUnorderedSinkTest, SlotVectorReallocateIsClean) {
  const std::string sched = R"cc(
    void ScheduleNextCompletion(sim::Simulation& sim, double eta) {
      sim.ScheduleAt(eta, FinishDueFlows);
    }
  )cc";
  const std::string net = R"cc(
    std::vector<SlotId> active_slots_;
    void Reallocate(sim::Simulation& sim) {
      for (const SlotId slot : active_slots_) {
        Flow& flow = flows_[slot];
        flow.rate = ShareOf(flow);
        ScheduleNextCompletion(sim, flow.remaining / flow.rate);
      }
    }
  )cc";
  const auto findings = Analyze({{"sched.cc", sched}, {"net.cc", net}});
  EXPECT_EQ(CountRule(findings, "unordered-sink"), 0);
}

// --- determinism: pointer-order -------------------------------------------

TEST(AnalyzePointerOrderTest, DefaultComparatorSortOfPointersIsFlagged) {
  const std::string tu = R"cc(
    std::vector<Widget*> widgets;
    void Arrange() {
      std::sort(widgets.begin(), widgets.end());
    }
  )cc";
  EXPECT_EQ(CountRule(Analyze({{"w.cc", tu}}), "pointer-order"), 1);
}

TEST(AnalyzePointerOrderTest, CustomComparatorIsClean) {
  const std::string tu = R"cc(
    std::vector<Widget*> widgets;
    void Arrange() {
      std::sort(widgets.begin(), widgets.end(), ByStableId{});
    }
  )cc";
  EXPECT_EQ(CountRule(Analyze({{"w.cc", tu}}), "pointer-order"), 0);
}

TEST(AnalyzePointerOrderTest, IterationOverPointerKeyedMapIsFlagged) {
  const std::string tu = R"cc(
    std::map<Widget*, int> ranks;
    void Walk(Bytes& digest) {
      for (const auto& kv : ranks) {
        digest.Append(kv.second);
      }
    }
  )cc";
  EXPECT_EQ(CountRule(Analyze({{"r.cc", tu}}), "pointer-order"), 1);
}

TEST(AnalyzePointerOrderTest, PointerContainerNamesAreScopedPerTu) {
  // `all` is a pointer container in one TU and a string container in
  // another; only the former's sort may be flagged.
  const std::string ptr_tu = R"cc(
    std::vector<Widget*> all;
    void ArrangePtrs() { std::sort(all.begin(), all.end()); }
  )cc";
  const std::string str_tu = R"cc(
    std::vector<std::string> all;
    void ArrangeStrings() { std::sort(all.begin(), all.end()); }
  )cc";
  const auto findings = Analyze({{"ptr.cc", ptr_tu}, {"str.cc", str_tu}});
  ASSERT_EQ(CountRule(findings, "pointer-order"), 1);
  EXPECT_EQ(FindRule(findings, "pointer-order")->file, "ptr.cc");
}

// --- status-flow ----------------------------------------------------------

TEST(AnalyzeStatusFlowTest, AssignedButNeverCheckedIsFlagged) {
  const std::string tu = R"cc(
    Status DoWork();
    void Caller() {
      Status st = DoWork();
    }
  )cc";
  EXPECT_EQ(CountRule(Analyze({{"s.cc", tu}}), "status-flow"), 1);
}

TEST(AnalyzeStatusFlowTest, AutoDeclFromStatusReturningCalleeIsFlagged) {
  const std::string tu = R"cc(
    Status DoWork();
    sim::Task Caller() {
      auto rc = co_await DoWork();
      co_return;
    }
  )cc";
  EXPECT_EQ(CountRule(Analyze({{"a.cc", tu}}), "status-flow"), 1);
}

TEST(AnalyzeStatusFlowTest, CheckedStatusIsClean) {
  const std::string tu = R"cc(
    Status DoWork();
    void Caller() {
      Status st = DoWork();
      if (!st.ok()) return;
    }
  )cc";
  EXPECT_EQ(CountRule(Analyze({{"s.cc", tu}}), "status-flow"), 0);
}

TEST(AnalyzeStatusFlowTest, SuppressionIsHonored) {
  const std::string tu = R"cc(
    Status DoWork();
    void Caller() {
      // lint: allow(status-flow) best-effort cleanup
      Status st = DoWork();
    }
  )cc";
  EXPECT_EQ(CountRule(Analyze({{"s.cc", tu}}), "status-flow"), 0);
}

// --- stats ----------------------------------------------------------------

TEST(AnalyzeStatsTest, CountsFunctionsCoroutinesAndFindings) {
  const std::string tu = R"cc(
    void Plain() {}
    sim::Task Coro(sim::Semaphore& slots, bool bail) {
      co_await slots.Acquire();
      if (bail) co_return;
      slots.Release();
    }
  )cc";
  Analyzer analyzer;
  analyzer.AddSource("s.cc", tu);
  const auto findings = analyzer.Run();
  EXPECT_EQ(CountRule(findings, "locked-return"), 1);
  const memfs::analyze::Stats& stats = analyzer.stats();
  EXPECT_EQ(stats.files, 1);
  EXPECT_EQ(stats.functions, 2);
  EXPECT_EQ(stats.coroutines, 1);
  EXPECT_EQ(stats.lock_sites, 1);
  EXPECT_EQ(stats.findings.at("locked-return"), 1);
  const std::string text = memfs::analyze::FormatStats(stats);
  EXPECT_NE(text.find("1 TU(s)"), std::string::npos) << text;
  EXPECT_NE(text.find("locked-return: 1 finding(s)"), std::string::npos)
      << text;
}

// --- suppression registry -------------------------------------------------

TEST(AnalyzeSuppressionRegistryTest, LintAcceptsAnalyzerRuleNames) {
  // The audit reads the one rule table: a suppression naming a semantic
  // rule is as valid as one naming a token rule.
  EXPECT_EQ(CountRule(Analyze({{"x.cc",
                                "// lint: allow(await-held-lock) reason\n"
                                "int x;\n"}}),
                      "allow-unknown"),
            0);
}

TEST(AnalyzeSuppressionRegistryTest, UnknownRuleAuditNamesTheValidSet) {
  const auto findings = Analyze({{"x.cc",
                                  "// lint: allow(not-a-rule) reason\n"
                                  "int x;\n"}});
  ASSERT_EQ(CountRule(findings, "allow-unknown"), 1);
  const Finding* f = FindRule(findings, "allow-unknown");
  // The audit message lists every valid rule, token and semantic alike.
  EXPECT_NE(f->message.find("lock-order"), std::string::npos) << f->message;
  EXPECT_NE(f->message.find("ignored-status"), std::string::npos)
      << f->message;
}

}  // namespace
