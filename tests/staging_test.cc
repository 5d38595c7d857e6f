// Tests for the stage-in/stage-out utility: cross-file-system copies
// between a disk-backed "permanent" deployment and the in-memory runtime FS
// sharing one simulated cluster.
#include <gtest/gtest.h>

#include "common/metrics.h"
#include "common/units.h"
#include "mtc/staging.h"
#include "mtc/workflow.h"
#include "test_util.h"
#include "testbed_fixture.h"

namespace memfs::mtc {
namespace {

using memfs::testing::Await;
using units::KiB;
using units::MiB;

// Two file systems on one simulated cluster: a "permanent" store and the
// runtime MemFS (both use the MemFS client here; what matters for staging is
// that they are distinct namespaces on distinct server sets).
class StagingTest : public ::testing::Test {
 protected:
  static constexpr std::uint32_t kNodes = 4;

  // Writes from node 0, reads from node 1.
  Status WriteFile(fs::Vfs& vfs, const std::string& path, const Bytes& data) {
    return testing::WriteFile(sim_, vfs, {0, 0}, path, data);
  }

  Result<Bytes> ReadFile(fs::Vfs& vfs, const std::string& path) {
    return testing::ReadFile(sim_, vfs, {1, 0}, path);
  }

  workloads::Testbed bed_{workloads::FsKind::kMemFs,
                          testing::BedConfig(kNodes)};
  testing::SecondDeployment archive_{bed_, {0, 1}};
  sim::Simulation& sim_ = bed_.simulation();
  fs::MemFs* permanent_ = &archive_.fs;
  fs::MemFs* runtime_ = bed_.memfs();
};

TEST_F(StagingTest, CopySingleFile) {
  const Bytes data = Bytes::Pattern(KiB(700), 3);
  ASSERT_TRUE(WriteFile(*permanent_, "/input", data).ok());

  Stager stager(sim_, {.streams = 4, .nodes = kNodes});
  const auto report = stager.CopyFiles(*permanent_, *runtime_, {"/input"});
  ASSERT_TRUE(report.status.ok()) << report.status;
  EXPECT_EQ(report.files, 1u);
  EXPECT_EQ(report.bytes, KiB(700));
  EXPECT_GT(report.elapsed, 0u);

  auto back = ReadFile(*runtime_, "/input");
  ASSERT_TRUE(back.ok());
  EXPECT_TRUE(back->ContentEquals(data));
}

TEST_F(StagingTest, MetricsSeparateStageInFromStageOut) {
  ASSERT_TRUE(WriteFile(*permanent_, "/in_a", Bytes::Pattern(KiB(64), 1)).ok());
  ASSERT_TRUE(WriteFile(*permanent_, "/in_b", Bytes::Pattern(KiB(32), 2)).ok());
  ASSERT_TRUE(WriteFile(*runtime_, "/result", Bytes::Pattern(KiB(48), 3)).ok());

  MetricsRegistry metrics;
  StagingConfig stage_in;
  stage_in.streams = 2;
  stage_in.nodes = kNodes;
  stage_in.metrics = &metrics;
  stage_in.metric_prefix = "stage_in";
  Stager in(sim_, stage_in);
  const auto in_report =
      in.CopyFiles(*permanent_, *runtime_, {"/in_a", "/in_b"});
  ASSERT_TRUE(in_report.status.ok()) << in_report.status;

  StagingConfig stage_out = stage_in;
  stage_out.metrics = &metrics;
  stage_out.metric_prefix = "stage_out";
  Stager out(sim_, stage_out);
  const auto out_report = out.CopyFiles(*runtime_, *permanent_, {"/result"});
  ASSERT_TRUE(out_report.status.ok()) << out_report.status;

  // Counters agree with the reports, per direction.
  EXPECT_EQ(metrics.CounterValue("stage_in.files"), 2u);
  EXPECT_EQ(metrics.CounterValue("stage_in.bytes"), KiB(64) + KiB(32));
  EXPECT_EQ(metrics.CounterValue("stage_in.bytes"), in_report.bytes);
  EXPECT_EQ(metrics.CounterValue("stage_out.files"), 1u);
  EXPECT_EQ(metrics.CounterValue("stage_out.bytes"), KiB(48));
  EXPECT_EQ(metrics.CounterValue("stage_out.bytes"), out_report.bytes);
}

TEST_F(StagingTest, FailedCopiesLeaveCountersUntouched) {
  MetricsRegistry metrics;
  StagingConfig config;
  config.streams = 2;
  config.nodes = kNodes;
  config.metrics = &metrics;
  Stager stager(sim_, config);
  const auto report =
      stager.CopyFiles(*permanent_, *runtime_, {"/never_written"});
  EXPECT_FALSE(report.status.ok());
  EXPECT_EQ(metrics.CounterValue("staging.files"), 0u);
  EXPECT_EQ(metrics.CounterValue("staging.bytes"), 0u);
}

TEST_F(StagingTest, CopyManyFilesBoundedStreams) {
  std::vector<std::string> paths;
  for (int f = 0; f < 20; ++f) {
    const std::string path = "/in_" + std::to_string(f);
    ASSERT_TRUE(WriteFile(*permanent_, path, Bytes::Synthetic(KiB(300), f)).ok());
    paths.push_back(path);
  }
  Stager stager(sim_, {.streams = 3, .nodes = kNodes});
  const auto report = stager.CopyFiles(*permanent_, *runtime_, paths);
  ASSERT_TRUE(report.status.ok());
  EXPECT_EQ(report.files, 20u);
  EXPECT_EQ(report.bytes, KiB(300) * 20);
  for (int f = 0; f < 20; ++f) {
    auto back = ReadFile(*runtime_, "/in_" + std::to_string(f));
    ASSERT_TRUE(back.ok());
    EXPECT_TRUE(back->ContentEquals(Bytes::Synthetic(KiB(300), f)));
  }
}

TEST_F(StagingTest, CopyTreeRecreatesDirectories) {
  ASSERT_TRUE(Await(sim_, permanent_->Mkdir({0, 0}, "/data")).ok());
  ASSERT_TRUE(Await(sim_, permanent_->Mkdir({0, 0}, "/data/sub")).ok());
  ASSERT_TRUE(WriteFile(*permanent_, "/data/a", Bytes::Copy("top")).ok());
  ASSERT_TRUE(WriteFile(*permanent_, "/data/sub/b", Bytes::Copy("deep")).ok());

  Stager stager(sim_, {.streams = 2, .nodes = kNodes});
  const auto report = stager.CopyTree(*permanent_, *runtime_, "/data");
  ASSERT_TRUE(report.status.ok()) << report.status;
  EXPECT_EQ(report.files, 2u);

  EXPECT_EQ(ReadFile(*runtime_, "/data/a")->view(), "top");
  EXPECT_EQ(ReadFile(*runtime_, "/data/sub/b")->view(), "deep");
  auto listing = Await(sim_, runtime_->ReadDir({0, 0}, "/data"));
  ASSERT_TRUE(listing.ok());
  EXPECT_EQ(listing->size(), 2u);
}

TEST_F(StagingTest, MissingSourceReported) {
  Stager stager(sim_, {});
  const auto report = stager.CopyFiles(*permanent_, *runtime_, {"/nope"});
  EXPECT_FALSE(report.status.ok());
  EXPECT_EQ(report.files, 0u);
}

TEST_F(StagingTest, StageOutAfterStageIn) {
  // Round trip: permanent -> runtime -> permanent (under a new name space).
  ASSERT_TRUE(Await(sim_, permanent_->Mkdir({0, 0}, "/in")).ok());
  ASSERT_TRUE(Await(sim_, permanent_->Mkdir({0, 0}, "/out")).ok());
  ASSERT_TRUE(Await(sim_, runtime_->Mkdir({0, 0}, "/in")).ok());
  const Bytes data = Bytes::Synthetic(MiB(2), 8);
  ASSERT_TRUE(WriteFile(*permanent_, "/in/result", data).ok());

  Stager stager(sim_, {.streams = 4, .nodes = kNodes});
  ASSERT_TRUE(
      stager.CopyFiles(*permanent_, *runtime_, {"/in/result"}).status.ok());

  // "Workflow" renames happen in the runtime FS; stage the tree back out.
  const auto out = stager.CopyTree(*runtime_, *permanent_, "/in");
  // /in already exists on the destination -> files inside must still copy...
  // except /in/result already exists there too (write-once): expect EXISTS.
  EXPECT_FALSE(out.status.ok());
  EXPECT_EQ(out.status.code(), ErrorCode::kExists);
}

}  // namespace
}  // namespace memfs::mtc
