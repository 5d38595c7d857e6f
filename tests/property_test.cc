// Property-based sweeps across configuration matrices: file round trips for
// every combination of stripe size, distribution strategy and replication;
// payload algebra under random splits; network byte conservation; global
// determinism. These tests hammer invariants rather than single behaviours.
#include <gtest/gtest.h>

#include "common/retry.h"
#include "common/rng.h"
#include "common/units.h"
#include "net/fluid_network.h"
#include "test_util.h"
#include "testbed_fixture.h"

namespace memfs {
namespace {

using fs::VfsContext;
using memfs::testing::Await;
using memfs::testing::BedConfig;
using units::KiB;
using units::MiB;

// --- MemFS round-trip matrix -----------------------------------------------

struct RoundTripParam {
  std::uint64_t stripe_size;
  bool ketama;
  std::uint32_t replication;
};

class RoundTripMatrixTest : public ::testing::TestWithParam<RoundTripParam> {
 protected:
  static constexpr std::uint32_t kNodes = 5;

  static workloads::TestbedConfig Config() {
    workloads::TestbedConfig config = BedConfig(kNodes);
    config.memfs.stripe_size = GetParam().stripe_size;
    config.memfs.use_ketama = GetParam().ketama;
    config.memfs.replication = GetParam().replication;
    return config;
  }

  workloads::Testbed bed_{workloads::FsKind::kMemFs, Config()};
  sim::Simulation& sim_ = bed_.simulation();
  fs::MemFs* fs_ = bed_.memfs();
};

TEST_P(RoundTripMatrixTest, WriteReadAcrossSizeBoundaries) {
  const std::uint64_t stripe = GetParam().stripe_size;
  // File sizes straddling every boundary the striper cares about.
  const std::uint64_t sizes[] = {0,          1,           stripe - 1,
                                 stripe,     stripe + 1,  2 * stripe,
                                 3 * stripe + stripe / 2};
  Rng rng(42);
  int index = 0;
  for (const std::uint64_t size : sizes) {
    const std::string path = "/f" + std::to_string(index++);
    const Bytes data = Bytes::Synthetic(size, size ^ 0xabcdef);

    // Write in randomized call sizes.
    auto created = Await(sim_, fs_->Create({0, 0}, path));
    ASSERT_TRUE(created.ok()) << path;
    std::uint64_t offset = 0;
    while (offset < size) {
      const std::uint64_t len = std::min<std::uint64_t>(
          rng.Range(1, stripe + stripe / 3), size - offset);
      ASSERT_TRUE(Await(sim_, fs_->Write({0, 0}, created.value(),
                                         data.Slice(offset, len)))
                      .ok());
      offset += len;
    }
    ASSERT_TRUE(Await(sim_, fs_->Close({0, 0}, created.value())).ok());

    // Read back from another node in a different randomized call pattern.
    auto opened = Await(sim_, fs_->Open({3, 0}, path));
    ASSERT_TRUE(opened.ok()) << path;
    Bytes out;
    while (true) {
      const std::uint64_t len = rng.Range(1, stripe * 2);
      auto chunk =
          Await(sim_, fs_->Read({3, 0}, opened.value(), out.size(), len));
      ASSERT_TRUE(chunk.ok()) << path;
      if (chunk->empty()) break;
      out.Append(*chunk);
      if (chunk->size() < len) break;
    }
    ASSERT_TRUE(Await(sim_, fs_->Close({3, 0}, opened.value())).ok());
    EXPECT_EQ(out.size(), size) << path;
    EXPECT_TRUE(out.ContentEquals(data)) << path;
  }
}

INSTANTIATE_TEST_SUITE_P(
    ConfigMatrix, RoundTripMatrixTest,
    ::testing::Values(RoundTripParam{KiB(4), false, 1},
                      RoundTripParam{KiB(64), false, 1},
                      RoundTripParam{KiB(512), false, 1},
                      RoundTripParam{MiB(2), false, 1},
                      RoundTripParam{KiB(512), true, 1},
                      RoundTripParam{KiB(64), true, 2},
                      RoundTripParam{KiB(512), false, 2},
                      RoundTripParam{KiB(512), true, 3}),
    [](const auto& info) {
      return "stripe" + std::to_string(info.param.stripe_size / 1024) +
             "k_" + (info.param.ketama ? "ketama" : "modulo") + "_r" +
             std::to_string(info.param.replication);
    });

// --- Payload algebra under random splits ------------------------------------

TEST(PayloadPropertyTest, RandomSplitReassemblyReal) {
  Rng rng(7);
  for (int trial = 0; trial < 20; ++trial) {
    const std::size_t size = 1 + rng.Below(5000);
    const Bytes whole = Bytes::Pattern(size, trial);
    Bytes rebuilt;
    std::size_t offset = 0;
    while (offset < size) {
      const std::size_t len = 1 + rng.Below(size - offset);
      rebuilt.Append(whole.Slice(offset, len));
      offset += len;
    }
    ASSERT_TRUE(rebuilt.ContentEquals(whole)) << "trial " << trial;
    ASSERT_EQ(rebuilt.view(), whole.view());
  }
}

TEST(PayloadPropertyTest, RandomSplitReassemblySynthetic) {
  Rng rng(13);
  for (int trial = 0; trial < 20; ++trial) {
    const std::size_t size = 1 + rng.Below(1 << 22);
    const Bytes whole = Bytes::Synthetic(size, trial * 31 + 1);
    Bytes rebuilt;
    std::size_t offset = 0;
    while (offset < size) {
      const std::size_t len = 1 + rng.Below(size - offset);
      rebuilt.Append(whole.Slice(offset, len));
      offset += len;
    }
    ASSERT_TRUE(rebuilt.ContentEquals(whole)) << "trial " << trial;
  }
}

TEST(PayloadPropertyTest, NestedSliceEqualsDirectSlice) {
  Rng rng(99);
  const Bytes whole = Bytes::Synthetic(1 << 20, 5);
  for (int trial = 0; trial < 50; ++trial) {
    const std::size_t o1 = rng.Below(1 << 19);
    const std::size_t l1 = 1 + rng.Below((1 << 20) - o1);
    const std::size_t o2 = rng.Below(l1);
    const std::size_t l2 = 1 + rng.Below(l1 - o2);
    EXPECT_TRUE(whole.Slice(o1, l1).Slice(o2, l2).ContentEquals(
        whole.Slice(o1 + o2, l2)));
  }
}

// --- Network conservation ----------------------------------------------------

TEST(NetworkPropertyTest, ByteAccountingConserved) {
  Rng rng(3);
  sim::Simulation sim;
  net::FairShareNetwork network(sim, net::Das4Ipoib(6));
  std::uint64_t expected_total = 0;
  std::vector<std::uint64_t> sent(6, 0);
  std::vector<std::uint64_t> received(6, 0);
  for (int i = 0; i < 300; ++i) {
    const auto src = static_cast<net::NodeId>(rng.Below(6));
    const auto dst = static_cast<net::NodeId>(rng.Below(6));
    const std::uint64_t bytes = rng.Below(1 << 20);
    (void)network.Transfer(src, dst, bytes);
    expected_total += bytes;
    sent[src] += bytes;
    received[dst] += bytes;
  }
  sim.Run();
  EXPECT_EQ(network.total_bytes(), expected_total);
  std::uint64_t sum_sent = 0;
  std::uint64_t sum_received = 0;
  for (net::NodeId n = 0; n < 6; ++n) {
    EXPECT_EQ(network.bytes_sent(n), sent[n]);
    EXPECT_EQ(network.bytes_received(n), received[n]);
    sum_sent += sent[n];
    sum_received += received[n];
  }
  EXPECT_EQ(sum_sent, expected_total);
  EXPECT_EQ(sum_received, expected_total);
  EXPECT_EQ(network.active_flows(), 0u);
}

TEST(NetworkPropertyTest, FasterNicNeverSlower) {
  // Monotonicity: the same transfer schedule on a faster fabric finishes no
  // later.
  auto run = [](std::uint64_t nic) {
    sim::Simulation sim;
    auto config = net::Das4Ipoib(4);
    config.nic_bandwidth = nic;
    net::FairShareNetwork network(sim, config);
    Rng rng(17);
    for (int i = 0; i < 60; ++i) {
      (void)network.Transfer(static_cast<net::NodeId>(rng.Below(4)),
                             static_cast<net::NodeId>(rng.Below(4)),
                             rng.Below(1 << 22));
    }
    return sim.Run();
  };
  EXPECT_LE(run(units::GB(2)), run(units::GB(1)));
  EXPECT_LE(run(units::GB(1)), run(units::MB(125)));
}

// --- Whole-system determinism -------------------------------------------------

TEST(SystemDeterminismTest, FullStackRunsAreBitIdentical) {
  auto run = [] {
    workloads::Testbed bed(workloads::FsKind::kMemFs, BedConfig(4));
    sim::Simulation& sim = bed.simulation();
    net::Network& network = bed.network();
    kv::KvCluster& storage = *bed.storage();
    fs::MemFs& memfs = *bed.memfs();
    for (int f = 0; f < 8; ++f) {
      [](fs::MemFs& fs, int id) -> sim::Task {
        const VfsContext ctx{static_cast<net::NodeId>(id % 4), 0};
        const std::string path = "/p" + std::to_string(id);
        auto created = co_await fs.Create(ctx, path);
        if (!created.ok()) co_return;
        (void)co_await fs.Write(ctx, created.value(),
                                Bytes::Synthetic(KiB(700), id));
        (void)co_await fs.Close(ctx, created.value());
        auto opened = co_await fs.Open(ctx, path);
        if (!opened.ok()) co_return;
        (void)co_await fs.Read(ctx, opened.value(), 0, KiB(700));
        (void)co_await fs.Close(ctx, opened.value());
      }(memfs, f);
    }
    sim.Run();
    return std::tuple{sim.now(), sim.events_processed(),
                      network.total_bytes(), storage.total_memory_used()};
  };
  EXPECT_EQ(run(), run());
}

// --- Retry backoff schedule ------------------------------------------------
//
// Invariants of the decorrelated-jitter retry schedule, across many seeds:
// bit-identical per seed, every backoff within [base, max_backoff], at most
// max_attempts - 1 backoffs, and the cumulative sleep never reaches the
// deadline budget.

TEST(RetryBackoffProperty, DeterministicBoundedAndWithinBudget) {
  RetryPolicy policy;
  policy.max_attempts = 8;
  policy.base_backoff = units::Micros(100);
  policy.max_backoff = units::Millis(5);
  policy.deadline_budget = units::Millis(12);

  for (std::uint64_t seed = 1; seed <= 64; ++seed) {
    // Worst case for the budget: every attempt fails instantly, so simulated
    // time advances only by the backoffs themselves.
    const auto run = [&policy](std::uint64_t s) {
      Rng rng(s);
      RetryState retry(policy, /*start_time=*/0);
      std::vector<std::uint64_t> sleeps;
      std::uint64_t now = 0;
      while (true) {
        const auto backoff = retry.NextBackoff(rng, now);
        if (!backoff.allowed) break;
        sleeps.push_back(backoff.nanos);
        now += backoff.nanos;
      }
      return std::pair{sleeps, now};
    };

    const auto [sleeps, total] = run(seed);
    EXPECT_EQ(sleeps, run(seed).first) << "seed " << seed;  // reproducible
    EXPECT_LE(sleeps.size(), policy.max_attempts - 1u) << "seed " << seed;
    EXPECT_LT(total, policy.deadline_budget) << "seed " << seed;
    for (const std::uint64_t nanos : sleeps) {
      EXPECT_GE(nanos, policy.base_backoff) << "seed " << seed;
      EXPECT_LE(nanos, policy.max_backoff) << "seed " << seed;
    }
  }
}

TEST(RetryBackoffProperty, UnlimitedBudgetExhaustsAttempts) {
  RetryPolicy policy;
  policy.max_attempts = 6;
  policy.deadline_budget = 0;  // unlimited
  Rng rng(7);
  RetryState retry(policy, 0);
  std::uint32_t backoffs = 0;
  std::uint64_t now = 0;
  while (true) {
    const auto backoff = retry.NextBackoff(rng, now);
    if (!backoff.allowed) break;
    ++backoffs;
    now += backoff.nanos;
  }
  // Attempts, not time, are the binding limit.
  EXPECT_EQ(backoffs, policy.max_attempts - 1u);
  EXPECT_EQ(retry.attempts_started(), policy.max_attempts);
}

}  // namespace
}  // namespace memfs
