// Tests for the Memcached stand-in: server state machine semantics, memory
// accounting, and the simulated cluster protocol binding.
#include <algorithm>
#include <functional>
#include <map>
#include <set>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "common/rng.h"
#include "common/units.h"
#include "kvstore/kv_cluster.h"
#include "kvstore/kv_server.h"
#include "net/fluid_network.h"
#include "sim/pool_alloc.h"  // MEMFS_POOL_ALLOC_BYPASS
#include "test_util.h"

namespace memfs::kv {
namespace {

using memfs::testing::Await;

// --- KvServer state machine ---

TEST(KvServerTest, SetGetRoundTrip) {
  KvServer server;
  EXPECT_TRUE(server.Set("k", Bytes::Copy("value")).ok());
  auto got = server.Get("k");
  ASSERT_TRUE(got.ok());
  EXPECT_EQ(got->view(), "value");
}

TEST(KvServerTest, GetMissingIsNotFound) {
  KvServer server;
  EXPECT_EQ(server.Get("nope").status().code(), ErrorCode::kNotFound);
  EXPECT_EQ(server.stats().misses, 1u);
}

TEST(KvServerTest, SetOverwrites) {
  KvServer server;
  ASSERT_TRUE(server.Set("k", Bytes::Copy("one")).ok());
  ASSERT_TRUE(server.Set("k", Bytes::Copy("twotwo")).ok());
  EXPECT_EQ(server.Get("k")->view(), "twotwo");
  EXPECT_EQ(server.memory_used(), 6u);
  EXPECT_EQ(server.object_count(), 1u);
}

TEST(KvServerTest, AddFailsOnExisting) {
  KvServer server;
  ASSERT_TRUE(server.Add("k", Bytes::Copy("one")).ok());
  EXPECT_EQ(server.Add("k", Bytes::Copy("two")).code(), ErrorCode::kExists);
  EXPECT_EQ(server.Get("k")->view(), "one");
}

TEST(KvServerTest, AppendRequiresExistingKey) {
  KvServer server;
  EXPECT_EQ(server.Append("k", Bytes::Copy("x")).code(),
            ErrorCode::kNotFound);
  ASSERT_TRUE(server.Set("k", Bytes::Copy("ab")).ok());
  ASSERT_TRUE(server.Append("k", Bytes::Copy("cd")).ok());
  EXPECT_EQ(server.Get("k")->view(), "abcd");
  EXPECT_EQ(server.memory_used(), 4u);
}

TEST(KvServerTest, DeleteReclaimsMemory) {
  KvServer server;
  ASSERT_TRUE(server.Set("k", Bytes::Copy("12345")).ok());
  EXPECT_EQ(server.memory_used(), 5u);
  ASSERT_TRUE(server.Delete("k").ok());
  EXPECT_EQ(server.memory_used(), 0u);
  EXPECT_EQ(server.Delete("k").code(), ErrorCode::kNotFound);
}

TEST(KvServerTest, ObjectSizeLimitEnforced) {
  KvServerConfig config;
  config.max_object_size = 100;
  KvServer server(config);
  EXPECT_EQ(server.Set("big", Bytes::Synthetic(101, 1)).code(),
            ErrorCode::kTooLarge);
  EXPECT_TRUE(server.Set("ok", Bytes::Synthetic(100, 1)).ok());
  // Appends may not grow past the limit either.
  EXPECT_EQ(server.Append("ok", Bytes::Synthetic(1, 2)).code(),
            ErrorCode::kTooLarge);
}

TEST(KvServerTest, MemoryLimitEnforced) {
  KvServerConfig config;
  config.memory_limit = 1000;
  config.max_object_size = 1000;
  KvServer server(config);
  EXPECT_TRUE(server.Set("a", Bytes::Synthetic(600, 1)).ok());
  EXPECT_EQ(server.Set("b", Bytes::Synthetic(500, 2)).code(),
            ErrorCode::kNoSpace);
  // Overwriting accounts for the replaced object.
  EXPECT_TRUE(server.Set("a", Bytes::Synthetic(900, 3)).ok());
  EXPECT_EQ(server.memory_used(), 900u);
}

TEST(KvServerTest, SyntheticPayloadsCountLogicalSize) {
  KvServer server;
  ASSERT_TRUE(server.Set("big", Bytes::Synthetic(units::MiB(64), 7)).ok());
  EXPECT_EQ(server.memory_used(), units::MiB(64));
}

TEST(KvServerTest, ClearDropsEverything) {
  KvServer server;
  ASSERT_TRUE(server.Set("a", Bytes::Copy("x")).ok());
  ASSERT_TRUE(server.Set("b", Bytes::Copy("y")).ok());
  server.Clear();
  EXPECT_EQ(server.object_count(), 0u);
  EXPECT_EQ(server.memory_used(), 0u);
  EXPECT_FALSE(server.Exists("a"));
}

TEST(KvServerTest, StatsCountOperations) {
  KvServer server;
  (void)server.Set("a", Bytes::Copy("1"));
  (void)server.Get("a");
  (void)server.Get("b");
  (void)server.Append("a", Bytes::Copy("2"));
  (void)server.Delete("a");
  const auto& stats = server.stats();
  EXPECT_EQ(stats.sets, 1u);
  EXPECT_EQ(stats.gets, 2u);
  EXPECT_EQ(stats.hits, 1u);
  EXPECT_EQ(stats.misses, 1u);
  EXPECT_EQ(stats.appends, 1u);
  EXPECT_EQ(stats.deletes, 1u);
}

// Model check of the object table: a seeded mix of Set/Add/Append/Delete
// over 20k keys with a Clear every 15k steps, so the bucket array grows many
// times from empty, compared with a std::map model after every step. Keys
// cover the lengths 0, 1, 15, 16 and 4096, keys with no '/', stripe and
// metadata keys that share 40 and 13 directory prefixes, and edge keys drawn
// one step in 50: "/" alone, keys ending in '/' (all prefix, no rest), and
// rests on either side of the longest the object header's length field holds.
TEST(KvServerTest, MatchesOrderedMapModel) {
  constexpr std::size_t kKeys = 20000;
  const std::vector<std::string> edges = {
      "/",
      "/run~3/",
      "d/5/",
      "/run~3/" + std::string(ObjectTable::kLongRest - 1, 'r'),
      "/run~3/" + std::string(ObjectTable::kLongRest, 'r'),
      "/run~3/" + std::string(ObjectTable::kLongRest + 1, 'r'),
      std::string(ObjectTable::kLongRest + 1, 'n'),
  };
  std::vector<std::string> keys;
  keys.reserve(kKeys);
  keys.emplace_back();
  for (std::size_t i = 1; keys.size() < kKeys - edges.size(); ++i) {
    const std::string id = std::to_string(i);
    if (i <= 200) {
      keys.emplace_back(1, static_cast<char>(i));
    } else if (i % 1000 == 0) {
      keys.push_back(id + std::string(4096 - id.size(), 'L'));
    } else if (i % 4 == 1) {
      keys.push_back("/run~" + std::to_string(i % 40) + "/f" + id + "#" +
                     std::to_string(i % 7));
    } else if (i % 4 == 3) {
      keys.push_back("d/" + std::to_string(i % 13) + "/" + id);
    } else {
      const std::size_t len = i % 2 == 0 ? 15 : 16;
      keys.push_back(std::string(len - id.size(), 'k') + id);
    }
  }
  keys.insert(keys.end(), edges.begin(), edges.end());

  KvServer server;
  std::map<std::string, Bytes, std::less<>> model;
  std::uint64_t model_memory = 0;
  Rng rng(2014);
  std::size_t keys_checks = 0;
  std::size_t edge_steps = 0;
  for (int step = 0; step < 40000; ++step) {
    // Writes outnumber deletes so the table keeps growing; the Clear frees
    // the table, which then grows again from empty.
    const bool edge = rng.Below(50) == 0;
    edge_steps += edge ? 1 : 0;
    const std::string& key = edge ? keys[kKeys - 1 - rng.Below(edges.size())]
                                  : keys[rng.Below(kKeys)];
    const Bytes value =
        rng.Below(2) == 0
            ? Bytes::Copy(std::string(rng.Below(40), static_cast<char>(step)))
            : Bytes::Synthetic(rng.Below(5000), rng.Next());
    const auto it = model.find(key);
    const bool present = it != model.end();
    const std::uint64_t op = rng.Below(5);
    if (step % 15000 == 14999) {
      server.Clear();
      model.clear();
      model_memory = 0;
    } else if (op < 2) {
      ASSERT_TRUE(server.Set(key, value).ok());
      model_memory += value.size() - (present ? it->second.size() : 0);
      model[key] = value;
    } else if (op == 2) {
      EXPECT_EQ(server.Add(key, value).code(),
                present ? ErrorCode::kExists : ErrorCode::kOk);
      if (!present) {
        model.emplace(key, value);
        model_memory += value.size();
      }
    } else if (op == 3) {
      EXPECT_EQ(server.Append(key, value).code(),
                present ? ErrorCode::kOk : ErrorCode::kNotFound);
      if (present) {
        it->second.Append(value);
        model_memory += value.size();
      }
    } else {
      EXPECT_EQ(server.Delete(key).code(),
                present ? ErrorCode::kOk : ErrorCode::kNotFound);
      if (present) {
        model_memory -= it->second.size();
        model.erase(it);
      }
    }

    ASSERT_EQ(server.object_count(), model.size()) << "step " << step;
    ASSERT_EQ(server.memory_used(), model_memory) << "step " << step;
    // The touched key and one other, through every read path.
    const std::string& other = keys[rng.Below(kKeys)];
    for (const std::string* probe : {&key, &other}) {
      const auto m = model.find(*probe);
      ASSERT_EQ(server.Exists(*probe), m != model.end()) << "step " << step;
      ASSERT_EQ(server.ValueSize(*probe),
                m == model.end() ? 0 : m->second.size());
      const Result<Bytes> got = server.Get(*probe);
      ASSERT_EQ(got.ok(), m != model.end()) << "step " << step;
      if (got.ok()) {
        ASSERT_TRUE(got->ContentEquals(m->second)) << "step " << step;
        ASSERT_EQ(got->is_real(), m->second.is_real());
        if (got->is_real()) {
          ASSERT_EQ(got->view(), m->second.view());
        }
      }
    }
    // The sorted enumeration: every step up to 1024 objects, then
    // every 97th step (the listing is O(n log n) per call).
    if (model.size() <= 1024 || step % 97 == 0) {
      ++keys_checks;
      const std::vector<std::string> listed = server.Keys();
      ASSERT_EQ(listed.size(), model.size());
      ASSERT_TRUE(std::equal(listed.begin(), listed.end(), model.begin(),
                             [](const std::string& a, const auto& entry) {
                               return a == entry.first;
                             }))
          << "step " << step;
    }
  }
  EXPECT_GT(model.size(), 4096u);  // the bucket array grew ten times
  EXPECT_GT(keys_checks, 1000u);
  EXPECT_GT(edge_steps, 700u);
}

// Keys() rebuilds every key from its prefix and rest: after a directory's
// last object goes (and its prefix id is reused by another directory), after
// its keys come back, and after a Clear.
TEST(KvServerTest, KeysAreWholeAndSortedAcrossEraseReinsertAndClear) {
  KvServer server;
  std::set<std::string> model;
  const auto put = [&](const std::string& key) {
    ASSERT_TRUE(server.Set(key, Bytes::Copy(key)).ok());
    model.insert(key);
  };
  const auto drop = [&](const std::string& key) {
    ASSERT_TRUE(server.Delete(key).ok());
    model.erase(key);
  };
  const auto check = [&](const char* when) {
    const std::vector<std::string> listed = server.Keys();
    EXPECT_EQ(listed, std::vector<std::string>(model.begin(), model.end()))
        << when;
    for (const std::string& key : model) {
      const Result<Bytes> got = server.Get(key);
      ASSERT_TRUE(got.ok()) << when << ": " << key;
      EXPECT_EQ(got->view(), key) << when;
    }
  };
  const std::vector<std::string> dirs = {"/a/", "/a/b/", "d/7/", "i/", ""};
  for (int round = 0; round < 3; ++round) {
    for (const std::string& dir : dirs) {
      for (int i = 0; i < 40; ++i) put(dir + "f" + std::to_string(i) + "#0");
      put(dir);  // all prefix
    }
    check("filled");
    for (int i = 0; i < 40; ++i) drop("/a/f" + std::to_string(i) + "#0");
    drop("/a/");
    check("/a/ emptied");
    for (int i = 0; i < 40; i += 3) put("/z/" + std::to_string(i));
    check("/z/ took the free prefix id");
    for (int i = 0; i < 40; i += 2) put("/a/f" + std::to_string(i) + "#0");
    for (int i = 1; i < 40; i += 2) drop("d/7/f" + std::to_string(i) + "#0");
    check("reinserted");
    server.Clear();
    model.clear();
    EXPECT_EQ(server.object_count(), 0u);
    check("cleared");
  }
}

// An erased block goes on the free list of its size, and inserting objects
// of the same block size takes them back before carving anything new.
TEST(KvServerTest, ErasedBlocksAreReusedBySameSizeInserts) {
  constexpr int kObjects = 1000;
  ObjectTable table;
  const auto name = [](const char* dir, int i) {
    return std::string(dir) + std::to_string(10000 + i);
  };
  std::set<const ObjectTable::Object*> blocks;
  for (int i = 0; i < kObjects; ++i) {
    table.Insert(name("/dir/k", i), Bytes::Synthetic(100, i));
    blocks.insert(table.Find(name("/dir/k", i)));
  }
  const std::size_t chunks = table.chunk_count();
#ifndef MEMFS_POOL_ALLOC_BYPASS
  EXPECT_GT(chunks, 10u);
#endif
  for (int i = 0; i < kObjects; i += 2) {
    table.Erase(table.Find(name("/dir/k", i)));
  }
  // Same rest lengths under another prefix: the same block sizes.
  std::vector<const ObjectTable::Object*> reused;
  for (int i = 0; i < kObjects; i += 2) {
    table.Insert(name("/other/j", i), Bytes::Synthetic(200, i));
    reused.push_back(table.Find(name("/other/j", i)));
  }
  EXPECT_EQ(table.chunk_count(), chunks);
#ifndef MEMFS_POOL_ALLOC_BYPASS
  for (const ObjectTable::Object* object : reused) {
    EXPECT_EQ(blocks.count(object), 1u);
  }
#endif
  ASSERT_EQ(table.size(), static_cast<std::size_t>(kObjects));
  std::set<std::string> seen;
  for (const ObjectTable::Object& object : table) {
    seen.insert(table.Key(object));
  }
  ASSERT_EQ(seen.size(), static_cast<std::size_t>(kObjects));
  for (int i = 0; i < kObjects; ++i) {
    const std::string key =
        i % 2 == 0 ? name("/other/j", i) : name("/dir/k", i);
    EXPECT_EQ(seen.count(key), 1u) << key;
    const ObjectTable::Object* object = table.Find(key);
    ASSERT_NE(object, nullptr) << key;
    EXPECT_EQ(object->value.size(), i % 2 == 0 ? 200u : 100u);
  }
  table.Clear();
  EXPECT_EQ(table.size(), 0u);
  EXPECT_EQ(table.chunk_count(), 0u);
  EXPECT_TRUE(table.begin() == table.end());
}

// --- KvCluster protocol over the simulated network ---

class KvClusterTest : public ::testing::Test {
 protected:
  KvClusterTest()
      : network_(sim_, net::Das4Ipoib(4)),
        cluster_(sim_, network_, {0, 1, 2, 3}) {}

  sim::Simulation sim_;
  net::FairShareNetwork network_;
  KvCluster cluster_;
};

TEST_F(KvClusterTest, RemoteSetGetRoundTrip) {
  Status set = Await(sim_, cluster_.Set(0, 2, "key", Bytes::Copy("payload")));
  EXPECT_TRUE(set.ok());
  auto got = Await(sim_, cluster_.Get(3, 2, "key"));
  ASSERT_TRUE(got.ok());
  EXPECT_EQ(got->view(), "payload");
  EXPECT_GT(sim_.now(), 0u);
}

TEST_F(KvClusterTest, OperationsTakeSimulatedTime) {
  const auto t0 = sim_.now();
  (void)Await(sim_, cluster_.Set(0, 1, "k", Bytes::Synthetic(units::MiB(1), 5)));
  const auto elapsed = sim_.now() - t0;
  // 1 MB at 1 GB/s is 1 ms; plus latency and service time.
  EXPECT_GT(elapsed, units::Millis(1));
  EXPECT_LT(elapsed, units::Millis(3));
}

TEST_F(KvClusterTest, LocalOpsFasterThanRemote) {
  (void)Await(sim_, cluster_.Set(0, 0, "local", Bytes::Synthetic(1024, 1)));
  (void)Await(sim_, cluster_.Set(0, 1, "remote", Bytes::Synthetic(1024, 1)));

  auto time_get = [&](net::NodeId client, std::uint32_t server,
                      const std::string& key) {
    const auto t0 = sim_.now();
    auto result = Await(sim_, cluster_.Get(client, server, key));
    EXPECT_TRUE(result.ok());
    return sim_.now() - t0;
  };
  const auto local = time_get(0, 0, "local");
  const auto remote = time_get(0, 1, "remote");
  EXPECT_LT(local, remote);
}

TEST_F(KvClusterTest, AddAndAppendSemanticsOverNetwork) {
  EXPECT_TRUE(Await(sim_, cluster_.Add(0, 1, "k", Bytes::Copy("v1"))).ok());
  EXPECT_EQ(Await(sim_, cluster_.Add(0, 1, "k", Bytes::Copy("v2"))).code(),
            ErrorCode::kExists);
  EXPECT_TRUE(Await(sim_, cluster_.Append(2, 1, "k", Bytes::Copy("+"))).ok());
  auto got = Await(sim_, cluster_.Get(3, 1, "k"));
  ASSERT_TRUE(got.ok());
  EXPECT_EQ(got->view(), "v1+");
}

TEST_F(KvClusterTest, DeleteOverNetwork) {
  (void)Await(sim_, cluster_.Set(0, 3, "k", Bytes::Copy("x")));
  EXPECT_TRUE(Await(sim_, cluster_.Delete(1, 3, "k")).ok());
  EXPECT_EQ(Await(sim_, cluster_.Get(2, 3, "k")).status().code(),
            ErrorCode::kNotFound);
}

TEST_F(KvClusterTest, ConcurrentAppendsAllLand) {
  (void)Await(sim_, cluster_.Set(0, 0, "log", Bytes::Copy("")));
  std::vector<sim::Future<Status>> futures;
  for (int i = 0; i < 10; ++i) {
    futures.push_back(
        cluster_.Append(i % 4, 0, "log", Bytes::Copy("x")));
  }
  sim_.Run();
  for (auto& f : futures) EXPECT_TRUE(f.value().ok());
  auto got = Await(sim_, cluster_.Get(0, 0, "log"));
  ASSERT_TRUE(got.ok());
  EXPECT_EQ(got->size(), 10u);
}

TEST_F(KvClusterTest, WorkerLimitSerializesLoad) {
  // More concurrent ops than workers; all must still complete.
  std::vector<sim::Future<Status>> futures;
  for (int i = 0; i < 64; ++i) {
    futures.push_back(cluster_.Set(i % 4, 1, "k" + std::to_string(i),
                                   Bytes::Synthetic(2048, i)));
  }
  sim_.Run();
  for (auto& f : futures) EXPECT_TRUE(f.value().ok());
  EXPECT_EQ(cluster_.server(1).object_count(), 64u);
}

TEST_F(KvClusterTest, TotalMemoryAggregates) {
  (void)Await(sim_, cluster_.Set(0, 0, "a", Bytes::Synthetic(100, 1)));
  (void)Await(sim_, cluster_.Set(0, 1, "b", Bytes::Synthetic(200, 2)));
  EXPECT_EQ(cluster_.total_memory_used(), 300u);
}

// --- Per-server memory accounting through the monitor gauges ---
//
// With a registry attached the cluster mirrors each server's memory and
// object count into "kv.mem_bytes/<n>" / "kv.objects/<n>" gauges on every
// committed mutation, so the time-series monitor samples accounting that is
// always consistent with KvServer::memory_used().

class KvGaugeTest : public ::testing::Test {
 protected:
  KvGaugeTest()
      : network_(sim_, net::Das4Ipoib(4)),
        cluster_(sim_, network_, {0, 1, 2, 3}, KvServerConfig{},
                 KvOpCostModel{}, &metrics_) {}

  std::int64_t MemGauge(std::uint32_t server) const {
    return metrics_.GaugeValue(InstanceGaugeName("kv.mem_bytes", server));
  }
  std::int64_t ObjectsGauge(std::uint32_t server) const {
    return metrics_.GaugeValue(InstanceGaugeName("kv.objects", server));
  }

  sim::Simulation sim_;
  MetricsRegistry metrics_;
  net::FairShareNetwork network_;
  KvCluster cluster_;
};

TEST_F(KvGaugeTest, SetUpdatesMemoryAndObjectGauges) {
  ASSERT_TRUE(Await(sim_, cluster_.Set(0, 1, "k", Bytes::Synthetic(100, 1)))
                  .ok());
  EXPECT_EQ(MemGauge(1), 100);
  EXPECT_EQ(ObjectsGauge(1), 1);
  EXPECT_EQ(MemGauge(1),
            static_cast<std::int64_t>(cluster_.server(1).memory_used()));
  // Overwriting replaces, not adds.
  ASSERT_TRUE(Await(sim_, cluster_.Set(0, 1, "k", Bytes::Synthetic(40, 2)))
                  .ok());
  EXPECT_EQ(MemGauge(1), 40);
  EXPECT_EQ(ObjectsGauge(1), 1);
}

TEST_F(KvGaugeTest, AppendGrowthTracked) {
  ASSERT_TRUE(Await(sim_, cluster_.Set(0, 2, "log", Bytes::Synthetic(10, 1)))
                  .ok());
  for (int i = 0; i < 5; ++i) {
    ASSERT_TRUE(
        Await(sim_, cluster_.Append(0, 2, "log", Bytes::Synthetic(7, i)))
            .ok());
    EXPECT_EQ(MemGauge(2), 10 + 7 * (i + 1));
  }
  EXPECT_EQ(MemGauge(2),
            static_cast<std::int64_t>(cluster_.server(2).memory_used()));
  EXPECT_EQ(ObjectsGauge(2), 1);
}

TEST_F(KvGaugeTest, DeleteReclaimsGaugedMemory) {
  ASSERT_TRUE(Await(sim_, cluster_.Set(0, 0, "a", Bytes::Synthetic(64, 1)))
                  .ok());
  ASSERT_TRUE(Await(sim_, cluster_.Set(0, 0, "b", Bytes::Synthetic(36, 2)))
                  .ok());
  EXPECT_EQ(MemGauge(0), 100);
  EXPECT_EQ(ObjectsGauge(0), 2);
  ASSERT_TRUE(Await(sim_, cluster_.Delete(0, 0, "a")).ok());
  EXPECT_EQ(MemGauge(0), 36);
  EXPECT_EQ(ObjectsGauge(0), 1);
  ASSERT_TRUE(Await(sim_, cluster_.Delete(0, 0, "b")).ok());
  EXPECT_EQ(MemGauge(0), 0);
  EXPECT_EQ(ObjectsGauge(0), 0);
}

TEST_F(KvGaugeTest, WipeOnRestartZeroesGauges) {
  ASSERT_TRUE(Await(sim_, cluster_.Set(0, 3, "k", Bytes::Synthetic(128, 1)))
                  .ok());
  EXPECT_EQ(MemGauge(3), 128);
  cluster_.SetServerDown(3, true, /*wipe_on_restart=*/true);
  // Still down: the stored bytes are only discarded at restart.
  cluster_.SetServerDown(3, false, /*wipe_on_restart=*/true);
  EXPECT_EQ(MemGauge(3), 0);
  EXPECT_EQ(ObjectsGauge(3), 0);
  EXPECT_EQ(cluster_.server(3).memory_used(), 0u);
}

TEST_F(KvGaugeTest, BatchedMutationsSyncGauges) {
  std::vector<BatchItem> items;
  for (int i = 0; i < 4; ++i) {
    items.push_back(BatchItem{"k" + std::to_string(i),
                              Bytes::Synthetic(25, static_cast<unsigned>(i))});
  }
  const BatchResult call =
      Await(sim_, cluster_.Batch(0, 1, BatchKind::kSet, std::move(items)));
  for (const auto& outcome : call->outcomes) {
    EXPECT_TRUE(outcome.result.status.ok());
  }
  EXPECT_EQ(MemGauge(1), 100);
  EXPECT_EQ(ObjectsGauge(1), 4);
}

}  // namespace
}  // namespace memfs::kv
