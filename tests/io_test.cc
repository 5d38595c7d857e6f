// Tests for the batched data path: KvServer MULTI_* commands, the
// KvCluster::Batch protocol (per-item verdicts, partial-batch retry,
// fault interaction), and the src/io OpScheduler that coalesces issuer
// operations into batches.
#include <gtest/gtest.h>

#include <functional>
#include <map>
#include <memory>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "common/metrics.h"
#include "common/units.h"
#include "io/op_scheduler.h"
#include "kvstore/kv_cluster.h"
#include "kvstore/kv_server.h"
#include "test_util.h"
#include "testbed_fixture.h"
#include "trace/trace.h"

namespace memfs {
namespace {

using memfs::testing::Await;
using memfs::testing::BedConfig;

sim::Task After(sim::Simulation& sim, sim::SimTime delay,
                std::function<void()> fn) {
  co_await sim.Delay(delay);
  fn();
}

std::vector<kv::BatchItem> MakeItems(
    std::vector<std::pair<std::string, Bytes>> pairs) {
  std::vector<kv::BatchItem> items;
  for (auto& [key, value] : pairs) {
    items.push_back(kv::BatchItem{std::move(key), std::move(value)});
  }
  return items;
}

// --- KvServer MULTI_* state machine ---

TEST(KvServerBatchTest, MultiSetReportsPerItemVerdicts) {
  kv::KvServerConfig config;
  config.max_object_size = 100;
  kv::KvServer server(config);
  auto results = server.MultiSet(MakeItems({{"a", Bytes::Synthetic(50, 1)},
                                            {"big", Bytes::Synthetic(101, 2)},
                                            {"b", Bytes::Synthetic(60, 3)}}));
  ASSERT_EQ(results.size(), 3u);
  EXPECT_TRUE(results[0].status.ok());
  EXPECT_EQ(results[1].status.code(), ErrorCode::kTooLarge);
  EXPECT_TRUE(results[2].status.ok());
  // The failed item did not abort the rest.
  EXPECT_TRUE(server.Exists("b"));
  EXPECT_FALSE(server.Exists("big"));
}

TEST(KvServerBatchTest, MultiGetMixesHitsAndMisses) {
  kv::KvServer server;
  ASSERT_TRUE(server.Set("x", Bytes::Copy("xv")).ok());
  ASSERT_TRUE(server.Set("z", Bytes::Copy("zv")).ok());
  auto results = server.MultiGet(
      MakeItems({{"x", {}}, {"y", {}}, {"z", {}}}));
  ASSERT_EQ(results.size(), 3u);
  ASSERT_TRUE(results[0].status.ok());
  EXPECT_EQ(results[0].value.view(), "xv");
  EXPECT_EQ(results[1].status.code(), ErrorCode::kNotFound);
  ASSERT_TRUE(results[2].status.ok());
  EXPECT_EQ(results[2].value.view(), "zv");
  EXPECT_EQ(server.stats().hits, 2u);
  EXPECT_EQ(server.stats().misses, 1u);
}

TEST(KvServerBatchTest, MultiDeleteAndAddAppendDispatch) {
  kv::KvServer server;
  ASSERT_TRUE(server.Set("a", Bytes::Copy("1")).ok());
  auto deleted = server.MultiDelete(MakeItems({{"a", {}}, {"b", {}}}));
  ASSERT_EQ(deleted.size(), 2u);
  EXPECT_TRUE(deleted[0].status.ok());
  EXPECT_EQ(deleted[1].status.code(), ErrorCode::kNotFound);

  // ADD and APPEND flavors go through the same per-item dispatcher.
  kv::BatchItem add{"a", Bytes::Copy("v")};
  EXPECT_TRUE(server.ApplyBatchItem(kv::BatchKind::kAdd, add).status.ok());
  kv::BatchItem dup{"a", Bytes::Copy("w")};
  EXPECT_EQ(server.ApplyBatchItem(kv::BatchKind::kAdd, dup).status.code(),
            ErrorCode::kExists);
  kv::BatchItem app{"a", Bytes::Copy("+")};
  EXPECT_TRUE(server.ApplyBatchItem(kv::BatchKind::kAppend, app).status.ok());
  EXPECT_EQ(server.Get("a")->view(), "v+");
}

// --- KvCluster::Batch over the simulated network ---

class KvBatchClusterTest : public ::testing::Test {
 protected:
  // `instrumented` attaches `registry_` to the cluster.
  KvBatchClusterTest(kv::KvClientPolicy policy = {}, bool instrumented = false)
      : bed_(workloads::FsKind::kMemFs, Config(policy, instrumented)) {}

  workloads::TestbedConfig Config(kv::KvClientPolicy policy,
                                  bool instrumented) {
    workloads::TestbedConfig config = BedConfig(4);
    config.kv_policy = policy;
    if (instrumented) config.metrics = &registry_;
    return config;
  }

  // Runs one batch RPC to completion and returns its per-item verdicts.
  std::vector<kv::BatchItemResult> Batch(net::NodeId client,
                                         std::uint32_t server,
                                         kv::BatchKind kind,
                                         std::vector<kv::BatchItem> items) {
    const kv::BatchResult call =
        Await(sim_, cluster_.Batch(client, server, kind, std::move(items)));
    std::vector<kv::BatchItemResult> results;
    for (auto& outcome : call->outcomes) results.push_back(outcome.result);
    return results;
  }

  MetricsRegistry registry_;
  workloads::Testbed bed_;
  sim::Simulation& sim_ = bed_.simulation();
  kv::KvCluster& cluster_ = *bed_.storage();
};

TEST_F(KvBatchClusterTest, BatchRoundTripAndStats) {
  auto set = Batch(0, 1, kv::BatchKind::kSet,
                   MakeItems({{"a", Bytes::Copy("av")},
                              {"b", Bytes::Copy("bv")},
                              {"c", Bytes::Copy("cv")}}));
  ASSERT_EQ(set.size(), 3u);
  for (const auto& item : set) EXPECT_TRUE(item.status.ok());

  auto got = Batch(2, 1, kv::BatchKind::kGet,
                   MakeItems({{"a", {}}, {"missing", {}}, {"c", {}}}));
  ASSERT_EQ(got.size(), 3u);
  EXPECT_EQ(got[0].value.view(), "av");
  EXPECT_EQ(got[1].status.code(), ErrorCode::kNotFound);
  EXPECT_EQ(got[2].value.view(), "cv");

  EXPECT_EQ(cluster_.stats().batch_rpcs, 2u);
  EXPECT_EQ(cluster_.stats().batch_items, 6u);
  EXPECT_EQ(cluster_.stats().single_rpcs, 0u);
  EXPECT_EQ(cluster_.server_stats(1).batch_rpcs, 2u);
  EXPECT_EQ(cluster_.server_stats(1).batch_items, 6u);
  EXPECT_EQ(cluster_.server_stats(0).batch_rpcs, 0u);
  // One MULTI_SET = one server-side stats bump per item.
  EXPECT_EQ(cluster_.server(1).stats().sets, 3u);
  EXPECT_EQ(cluster_.server(1).stats().gets, 3u);
}

TEST_F(KvBatchClusterTest, BatchOfOneMatchesSingleOpCost) {
  // A single-key call is a batch of one underneath: the same framing, the
  // same full per-op base, and a zero-time unwrap of the one verdict.
  const auto t0 = sim_.now();
  (void)Await(sim_, cluster_.Set(0, 1, "single", Bytes::Synthetic(2048, 1)));
  const auto single = sim_.now() - t0;

  const auto t1 = sim_.now();
  auto results = Batch(0, 1, kv::BatchKind::kSet,
                       MakeItems({{"batchd",  // same key length
                                   Bytes::Synthetic(2048, 2)}}));
  const auto batched = sim_.now() - t1;
  ASSERT_EQ(results.size(), 1u);
  EXPECT_TRUE(results[0].status.ok());
  EXPECT_EQ(single, batched);
}

// Each entry point reports under its own metrics: a single-key call records
// one kv.<kind> sample (with its exemplar) and nothing under kv.batch.*; a
// batch records kv.batch.<kind> and kv.batch.size once, plus one kv.<kind>
// sample per item.
class KvBatchMetricsTest : public KvBatchClusterTest {
 protected:
  KvBatchMetricsTest() : KvBatchClusterTest({}, /*instrumented=*/true) {}

  std::uint64_t Count(const std::string& name) const {
    const auto it = registry_.all().find(name);
    return it == registry_.all().end() ? 0 : it->second.count();
  }
  std::uint64_t BatchSamples() const {
    std::uint64_t total = 0;
    for (const auto& [name, histogram] : registry_.all()) {
      if (name.starts_with("kv.batch.")) total += histogram.count();
    }
    return total;
  }
};

TEST_F(KvBatchMetricsTest, SingleKeySetRecordsOneOpSampleWithExemplar) {
  trace::Tracer tracer(sim_);
  const trace::TraceContext root = tracer.StartTrace("op", "task");
  ASSERT_TRUE(
      Await(sim_, cluster_.Set(0, 1, "k", Bytes::Copy("v"), root)).ok());
  trace::End(root);

  EXPECT_EQ(Count("kv.set"), 1u);
  const auto& exemplars = registry_.Histogram("kv.set").exemplars();
  ASSERT_EQ(exemplars.size(), 1u);
  EXPECT_EQ(exemplars[0].trace_id, root.trace_id);
  EXPECT_EQ(exemplars[0].server, 1u);
  EXPECT_EQ(BatchSamples(), 0u);
}

TEST_F(KvBatchMetricsTest, BatchRecordsBatchSamplesAndOneOpSamplePerItem) {
  auto set = Batch(0, 1, kv::BatchKind::kSet,
                   MakeItems({{"a", Bytes::Copy("av")},
                              {"b", Bytes::Copy("bv")},
                              {"c", Bytes::Copy("cv")}}));
  for (const auto& item : set) ASSERT_TRUE(item.status.ok());

  EXPECT_EQ(Count("kv.batch.set"), 1u);
  EXPECT_EQ(Count("kv.set"), 3u);
  EXPECT_EQ(Count("kv.batch.size"), 1u);
  EXPECT_EQ(BatchSamples(), 2u);  // kv.batch.set + kv.batch.size
}

class KvBatchDeadlineTest : public KvBatchClusterTest {
 protected:
  static kv::KvClientPolicy SlowPolicy() {
    kv::KvClientPolicy policy;
    policy.op_deadline = units::Micros(2500);
    policy.retry.max_attempts = 4;
    return policy;
  }
  KvBatchDeadlineTest() : KvBatchClusterTest(SlowPolicy()) {}
};

TEST_F(KvBatchDeadlineTest, PartialBatchRetriesOnlyUnresolvedItems) {
  // ~10.15us for the first 1 KiB SET and ~6.15us for each later item (the
  // message's 4us dispatch is paid once), x100 slowdown: commits land at
  // ~1.015, 1.63, 2.245 and 2.86ms. With a 2.5ms deadline three items beat
  // the cut; the retry round must carry exactly the fourth — the server
  // applies 4 sets, not 5.
  cluster_.SetServerSlowdown(1, 100.0);
  auto results =
      Batch(0, 1, kv::BatchKind::kSet,
            MakeItems({{"k0", Bytes::Synthetic(units::KiB(1), 0)},
                       {"k1", Bytes::Synthetic(units::KiB(1), 1)},
                       {"k2", Bytes::Synthetic(units::KiB(1), 2)},
                       {"k3", Bytes::Synthetic(units::KiB(1), 3)}}));
  ASSERT_EQ(results.size(), 4u);
  for (const auto& item : results) EXPECT_TRUE(item.status.ok());

  EXPECT_EQ(cluster_.server(1).stats().sets, 4u);
  EXPECT_GE(cluster_.stats().retries, 1u);
  EXPECT_GE(cluster_.stats().deadline_exceeded, 1u);
  EXPECT_EQ(cluster_.server_stats(1).batch_rpcs, 2u);
  EXPECT_EQ(cluster_.server_stats(1).batch_items, 5u);  // 4 + 1 retried
  EXPECT_GE(cluster_.server_stats(1).retries, 1u);
}

TEST_F(KvBatchClusterTest, BatchRetriesAcrossServerDowntime) {
  cluster_.SetServerDown(0, true);
  // Recovery lands after the first attempt's failure timeout (1 ms) and
  // before the earliest retry (>= 1.2 ms with the 200us base backoff).
  After(sim_, units::Micros(1100), [this] {
    cluster_.SetServerDown(0, false);
  });
  auto results = Batch(1, 0, kv::BatchKind::kSet,
                       MakeItems({{"a", Bytes::Copy("1")},
                                  {"b", Bytes::Copy("2")},
                                  {"c", Bytes::Copy("3")}}));
  ASSERT_EQ(results.size(), 3u);
  for (const auto& item : results) EXPECT_TRUE(item.status.ok());
  EXPECT_EQ(cluster_.server(0).stats().sets, 3u);
  EXPECT_GE(cluster_.stats().retries, 1u);
  EXPECT_EQ(cluster_.server_stats(0).batch_rpcs, 2u);
}

TEST_F(KvBatchClusterTest, WipeOnRestartYieldsMixedBatchGet) {
  auto set = Batch(0, 0, kv::BatchKind::kSet,
                   MakeItems({{"k0", Bytes::Copy("v0")},
                              {"k1", Bytes::Copy("v1")},
                              {"k2", Bytes::Copy("v2")},
                              {"k3", Bytes::Copy("v3")}}));
  for (const auto& item : set) ASSERT_TRUE(item.status.ok());

  // Memcached restart: the process comes back empty.
  cluster_.SetServerDown(0, true);
  cluster_.SetServerDown(0, false, /*wipe_on_restart=*/true);
  auto reset = Batch(1, 0, kv::BatchKind::kSet,
                     MakeItems({{"k1", Bytes::Copy("r1")},
                                {"k3", Bytes::Copy("r3")}}));
  for (const auto& item : reset) ASSERT_TRUE(item.status.ok());

  auto got = Batch(2, 0, kv::BatchKind::kGet,
                   MakeItems({{"k0", {}}, {"k1", {}}, {"k2", {}}, {"k3", {}}}));
  ASSERT_EQ(got.size(), 4u);
  EXPECT_EQ(got[0].status.code(), ErrorCode::kNotFound);
  EXPECT_EQ(got[1].value.view(), "r1");
  EXPECT_EQ(got[2].status.code(), ErrorCode::kNotFound);
  EXPECT_EQ(got[3].value.view(), "r3");
}

// --- OpScheduler coalescing ---

TEST(OpSchedulerTest, SameInstantOpsCoalesceIntoOneBatch) {
  workloads::Testbed bed(workloads::FsKind::kMemFs, BedConfig(4));
  sim::Simulation& sim = bed.simulation();
  kv::KvCluster& cluster = *bed.storage();
  io::OpScheduler sched(sim, cluster);

  std::vector<sim::Future<Status>> writes;
  for (int i = 0; i < 8; ++i) {
    writes.push_back(sched.Set(0, 1, "k" + std::to_string(i),
                               Bytes::Synthetic(512, i)));
  }
  sim.Run();
  for (auto& f : writes) {
    ASSERT_TRUE(f.ready());
    EXPECT_TRUE(f.value().ok());
  }
  EXPECT_EQ(sched.stats().batched_ops, 8u);
  EXPECT_EQ(sched.stats().batches, 1u);
  EXPECT_EQ(sched.stats().max_batch, 8u);
  EXPECT_EQ(sched.stats().passthrough_ops, 0u);
  EXPECT_EQ(cluster.stats().batch_rpcs, 1u);
  EXPECT_EQ(cluster.stats().single_rpcs, 0u);

  // Reads drain back through the same lane, batched too.
  std::vector<sim::Future<Result<Bytes>>> reads;
  for (int i = 0; i < 8; ++i) {
    reads.push_back(sched.Get(0, 1, "k" + std::to_string(i)));
  }
  sim.Run();
  for (int i = 0; i < 8; ++i) {
    ASSERT_TRUE(reads[i].ready());
    ASSERT_TRUE(reads[i].value().ok());
    EXPECT_TRUE(
        reads[i].value()->ContentEquals(Bytes::Synthetic(512, i)));
  }
  EXPECT_EQ(sched.stats().batches, 2u);
}

TEST(OpSchedulerTest, BatchCeilingSplitsLargeBursts) {
  workloads::Testbed bed(workloads::FsKind::kMemFs, BedConfig(2));
  sim::Simulation& sim = bed.simulation();
  kv::KvCluster& cluster = *bed.storage();
  io::IoConfig config;
  config.max_batch_ops = 4;
  io::OpScheduler sched(sim, cluster, config);

  std::vector<sim::Future<Status>> writes;
  for (int i = 0; i < 10; ++i) {
    writes.push_back(sched.Set(0, 1, "k" + std::to_string(i),
                               Bytes::Synthetic(128, i)));
  }
  sim.Run();
  for (auto& f : writes) EXPECT_TRUE(f.value().ok());
  EXPECT_EQ(sched.stats().batched_ops, 10u);
  EXPECT_EQ(sched.stats().batches, 3u);  // 4 + 4 + 2
  EXPECT_EQ(sched.stats().max_batch, 4u);
}

TEST(OpSchedulerTest, BatchingOffIsPurePassthrough) {
  workloads::Testbed bed(workloads::FsKind::kMemFs, BedConfig(2));
  sim::Simulation& sim = bed.simulation();
  kv::KvCluster& cluster = *bed.storage();
  io::IoConfig config;
  config.batching = false;
  io::OpScheduler sched(sim, cluster, config);

  std::vector<sim::Future<Status>> writes;
  for (int i = 0; i < 6; ++i) {
    writes.push_back(sched.Set(0, 1, "k" + std::to_string(i),
                               Bytes::Synthetic(128, i)));
  }
  sim.Run();
  for (auto& f : writes) EXPECT_TRUE(f.value().ok());
  EXPECT_EQ(sched.stats().passthrough_ops, 6u);
  EXPECT_EQ(sched.stats().batches, 0u);
  EXPECT_EQ(cluster.stats().single_rpcs, 6u);
  EXPECT_EQ(cluster.stats().batch_rpcs, 0u);
}

TEST(OpSchedulerTest, MixedKindsSplitIntoPerKindBatches) {
  // A DELETE between SETs never merges into the SET batch; the drain gathers
  // same-kind ops (across the gap — safe, no issuer keeps cross-kind ops in
  // flight for one key) and leaves the DELETE for its own round.
  workloads::Testbed bed(workloads::FsKind::kMemFs, BedConfig(2));
  sim::Simulation& sim = bed.simulation();
  kv::KvCluster& cluster = *bed.storage();
  io::OpScheduler sched(sim, cluster);

  auto s1 = sched.Set(0, 1, "a", Bytes::Copy("1"));
  auto s2 = sched.Set(0, 1, "b", Bytes::Copy("2"));
  auto d1 = sched.Delete(0, 1, "c");
  auto s3 = sched.Set(0, 1, "d", Bytes::Copy("3"));
  sim.Run();
  EXPECT_TRUE(s1.value().ok());
  EXPECT_TRUE(s2.value().ok());
  EXPECT_EQ(d1.value().code(), ErrorCode::kNotFound);
  EXPECT_TRUE(s3.value().ok());
  // set{a,b,d} + delete{c}: two per-kind batches.
  EXPECT_EQ(sched.stats().batches, 2u);
  EXPECT_EQ(cluster.server(1).stats().sets, 3u);
  EXPECT_EQ(cluster.server(1).stats().deletes, 1u);
}

TEST(OpSchedulerTest, BatchedRunsAreDeterministic) {
  auto run = [] {
    workloads::Testbed bed(workloads::FsKind::kMemFs, BedConfig(4));
    sim::Simulation& sim = bed.simulation();
    kv::KvCluster& cluster = *bed.storage();
    io::OpScheduler sched(sim, cluster);
    std::vector<sim::Future<Status>> writes;
    for (int i = 0; i < 24; ++i) {
      writes.push_back(sched.Set(i % 4, i % 3, "k" + std::to_string(i),
                                 Bytes::Synthetic(256 + 64 * (i % 5), i)));
    }
    sim.Run();
    std::vector<sim::Future<Result<Bytes>>> reads;
    for (int i = 0; i < 24; ++i) {
      reads.push_back(sched.Get((i + 1) % 4, i % 3, "k" + std::to_string(i)));
    }
    sim.Run();
    for (auto& f : writes) EXPECT_TRUE(f.value().ok());
    for (auto& f : reads) EXPECT_TRUE(f.value().ok());
    return sim.EventDigest();
  };
  EXPECT_EQ(run(), run());
}

// --- OpScheduler bursts: batch composition and per-op verdicts ---

// Drives scripted bursts through one (client 0 -> server 1) lane and records
// what reached the server: one "<kind>[key,...]" per batch RPC, in issue
// order, read off the kv.batch spans and the kv.item spans under them; and
// each op's verdict, in issue order. Every op opens its own trace, so a
// batch's span hangs under its first member's wait span.
class OpSchedulerBurstTest : public ::testing::Test {
 protected:
  void Start(io::IoConfig config) {
    sched_ = std::make_unique<io::OpScheduler>(sim_, cluster_, config);
  }

  // Issues one op now. A get reports its value's size with its verdict.
  void Op(kv::BatchKind kind, const std::string& key,
          std::uint64_t value_size = 0) {
    const trace::TraceContext root = tracer_.StartTrace(key, "test");
    Issued issued;
    issued.key = key;
    const Bytes value = Bytes::Synthetic(value_size, key.size());
    switch (kind) {
      case kv::BatchKind::kSet:
        issued.status = sched_->Set(0, 1, key, value, root);
        break;
      case kv::BatchKind::kAdd:
        issued.status = sched_->Add(0, 1, key, value, root);
        break;
      case kv::BatchKind::kAppend:
        issued.status = sched_->Append(0, 1, key, value, root);
        break;
      case kv::BatchKind::kDelete:
        issued.status = sched_->Delete(0, 1, key, root);
        break;
      case kv::BatchKind::kGet:
        issued.value = sched_->Get(0, 1, key, root);
        break;
    }
    issued_.push_back(std::move(issued));
  }

  // Issues one op `delay` from now, while earlier batches may be in flight.
  void OpLater(sim::SimTime delay, kv::BatchKind kind, std::string key,
               std::uint64_t value_size = 0) {
    After(sim_, delay, [this, kind, key = std::move(key), value_size] {
      Op(kind, key, value_size);
    });
  }

  std::string Batches() const {
    std::map<trace::SpanId, const trace::SpanRecord*> spans;
    for (const trace::SpanRecord& span : tracer_.finished()) {
      spans[span.span_id] = &span;
    }
    // kv.item -> kv.batch.attempt -> kv.batch.
    std::map<trace::SpanId, std::vector<std::string>> keys;
    for (const auto& [id, span] : spans) {
      if (span->name != "kv.item") continue;
      const trace::SpanRecord* attempt = spans.at(span->parent_id);
      keys[attempt->parent_id].push_back(Arg(*span, "key"));
    }
    std::string out;
    for (const auto& [id, span] : spans) {
      if (span->name != "kv.batch") continue;
      const std::vector<std::string>& members = keys[id];
      EXPECT_EQ(std::to_string(members.size()), Arg(*span, "items"));
      out += out.empty() ? "" : " ";
      out += Arg(*span, "kind") + "[";
      for (std::size_t i = 0; i < members.size(); ++i) {
        out += (i == 0 ? "" : ",") + members[i];
      }
      out += "]";
    }
    return out;
  }

  std::string Verdicts() const {
    std::string out;
    for (const Issued& op : issued_) {
      out += out.empty() ? "" : " ";
      out += op.key + "=";
      if (op.status.has_value()) {
        EXPECT_TRUE(op.status->ready()) << op.key;
        out += ToString(op.status->value().code());
      } else {
        EXPECT_TRUE(op.value->ready()) << op.key;
        const Result<Bytes>& got = op.value->value();
        out += got.ok() ? "ok:" + std::to_string(got->size())
                        : std::string(ToString(got.status().code()));
      }
    }
    return out;
  }

  static std::string Arg(const trace::SpanRecord& span, std::string_view key) {
    for (const auto& [name, value] : span.args) {
      if (name == key) return value;
    }
    return "?";
  }

  struct Issued {
    std::string key;
    std::optional<sim::Future<Status>> status;
    std::optional<sim::Future<Result<Bytes>>> value;
  };

  workloads::Testbed bed_{workloads::FsKind::kMemFs, BedConfig(2)};
  sim::Simulation& sim_ = bed_.simulation();
  kv::KvCluster& cluster_ = *bed_.storage();
  trace::Tracer tracer_{sim_};
  std::unique_ptr<io::OpScheduler> sched_;
  std::vector<Issued> issued_;
};

TEST_F(OpSchedulerBurstTest, MixedKindsBatchPerKindInQueueOrder) {
  Start({});
  using K = kv::BatchKind;
  Op(K::kSet, "a", 100);
  Op(K::kSet, "b", 200);
  Op(K::kDelete, "zz");
  Op(K::kGet, "missing");
  Op(K::kAdd, "c", 50);
  Op(K::kSet, "d", 10);
  Op(K::kAppend, "a", 7);
  Op(K::kDelete, "b");
  Op(K::kGet, "a");
  Op(K::kAdd, "a", 1);
  sim_.Run();
  EXPECT_EQ(Batches(),
            "set[a,b,d] delete[zz,b] get[missing,a] add[c,a] append[a]");
  EXPECT_EQ(Verdicts(),
            "a=OK b=OK zz=NOT_FOUND missing=NOT_FOUND c=OK d=OK a=OK b=OK "
            "a=ok:100 a=EXISTS");
  EXPECT_EQ(sched_->stats().batches, 5u);
  EXPECT_EQ(sched_->stats().max_batch, 3u);
}

TEST_F(OpSchedulerBurstTest, CeilingsSplitBurstsInOrder) {
  io::IoConfig config;
  config.max_batch_ops = 3;
  config.max_batch_bytes = 1000;
  Start(config);
  using K = kv::BatchKind;
  // Bytes count key + value: "k0".."k9" are 2 bytes each.
  Op(K::kSet, "k0", 398);   // 400
  Op(K::kSet, "k1", 398);   // 800
  Op(K::kSet, "k2", 398);   // 1200 > 1000: waits for the next batch
  Op(K::kSet, "k3", 98);    // 900: joins the first batch, its third op
  Op(K::kSet, "k4", 2998);  // over the byte ceiling alone: joins only as head
  Op(K::kSet, "k5", 8);
  Op(K::kGet, "k0");
  Op(K::kSet, "k6", 8);
  Op(K::kSet, "k7", 8);
  sim_.Run();
  EXPECT_EQ(Batches(),
            "set[k0,k1,k3] set[k2,k5,k6] set[k4] get[k0] set[k7]");
  EXPECT_EQ(Verdicts(),
            "k0=OK k1=OK k2=OK k3=OK k4=OK k5=OK k0=ok:398 k6=OK k7=OK");
  EXPECT_EQ(sched_->stats().batches, 5u);
  EXPECT_EQ(sched_->stats().batched_ops, 9u);
}

TEST_F(OpSchedulerBurstTest, WindowOfOneQueuesBehindTheBatchInFlight) {
  io::IoConfig config;
  config.window = 1;
  Start(config);
  using K = kv::BatchKind;
  Op(K::kSet, "a", 4096);
  Op(K::kSet, "b", 4096);
  // Arrive while set[a,b] holds the window: they all join the next batch.
  OpLater(units::Micros(5), K::kSet, "c", 64);
  OpLater(units::Micros(6), K::kGet, "a");
  OpLater(units::Micros(7), K::kSet, "d", 64);
  OpLater(units::Micros(8), K::kGet, "b");
  sim_.Run();
  EXPECT_EQ(Batches(), "set[a,b] set[c,d] get[a,b]");
  EXPECT_EQ(Verdicts(), "a=OK b=OK c=OK a=ok:4096 d=OK b=ok:4096");
  EXPECT_EQ(sched_->stats().batches, 3u);
}

TEST_F(OpSchedulerBurstTest, WiderWindowShipsArrivalsBesideTheFirstBatch) {
  io::IoConfig config;
  config.window = 2;
  Start(config);
  using K = kv::BatchKind;
  Op(K::kSet, "a", 4096);
  Op(K::kSet, "b", 4096);
  OpLater(units::Micros(5), K::kSet, "c", 64);
  OpLater(units::Micros(6), K::kSet, "d", 64);
  OpLater(units::Micros(7), K::kSet, "e", 64);
  sim_.Run();
  // c takes the second slot at once; d and e queue behind both batches.
  EXPECT_EQ(Batches(), "set[a,b] set[c] set[d,e]");
  EXPECT_EQ(Verdicts(), "a=OK b=OK c=OK d=OK e=OK");
}

}  // namespace
}  // namespace memfs
