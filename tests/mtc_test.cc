// Tests for the workflow engine: dependency resolution, schedulers, stage
// accounting, failure propagation; and for the workload generators.
#include <array>
#include <optional>
#include <set>
#include <string_view>
#include <unordered_map>

#include <gtest/gtest.h>

#include "amfs/amfs.h"
#include "common/metrics.h"
#include "common/units.h"
#include "mtc/runner.h"
#include "mtc/scheduler.h"
#include "mtc/workflow.h"
#include "test_util.h"
#include "testbed_fixture.h"
#include "trace/trace.h"
#include "workloads/blast.h"
#include "workloads/montage.h"

namespace memfs::mtc {
namespace {

using memfs::testing::BedConfig;
using units::KiB;
using units::MiB;

// Builds a diamond workflow: stage_in -> two parallel consumers -> join.
Workflow Diamond() {
  Workflow wf;
  wf.name = "diamond";
  wf.directories = {"/wf"};
  const FileId src = wf.AddFile("/wf/src", KiB(700));
  const FileId left = wf.AddFile("/wf/l", KiB(300));
  const FileId right = wf.AddFile("/wf/r", KiB(300));
  const FileId out = wf.AddFile("/wf/out", KiB(100));
  wf.AddTask("in", "stage_in", {}, std::array{src});
  wf.AddTask("left", "fan", std::array{src}, std::array{left},
             units::Millis(10));
  wf.AddTask("right", "fan", std::array{src}, std::array{right},
             units::Millis(10));
  wf.AddTask("join", "join", std::array{left, right}, std::array{out});
  return wf;
}

// The first task (lowest index) writing `path`, if any.
std::optional<std::size_t> FirstProducer(const Workflow& wf,
                                         std::string_view path) {
  for (std::size_t i = 0; i < wf.tasks.size(); ++i) {
    for (FileId output : wf.Outputs(wf.tasks[i])) {
      if (wf.Path(output) == path) return i;
    }
  }
  return std::nullopt;
}

// Per file: does some task write it?
std::vector<bool> Produced(const Workflow& wf) {
  std::vector<bool> produced(wf.files.size(), false);
  for (const auto& task : wf.tasks) {
    for (FileId output : wf.Outputs(task)) produced[output] = true;
  }
  return produced;
}

// A one-task workflow over `inputs` (paths added to its file table), for
// placement tests.
Workflow SingleTask(std::string name,
                    const std::vector<std::string>& inputs = {}) {
  Workflow wf;
  std::vector<FileId> ids;
  for (const auto& path : inputs) ids.push_back(wf.AddFile(path));
  wf.AddTask(std::move(name), "s", ids, {});
  return wf;
}

TEST(WorkflowTest, ProducersIndex) {
  const Workflow wf = Diamond();
  EXPECT_EQ(FirstProducer(wf, "/wf/src"), 0u);
  EXPECT_EQ(FirstProducer(wf, "/wf/out"), 3u);
  EXPECT_EQ(wf.TotalOutputBytes(), KiB(700) + KiB(300) * 2 + KiB(100));
}

TEST(RunnerTest, DiamondRunsInDependencyOrder) {
  workloads::Testbed cluster(workloads::FsKind::kMemFs, BedConfig(2));
  UniformScheduler scheduler;
  Runner runner(cluster.simulation(), *cluster.memfs(), scheduler,
                {.nodes = 2, .cores_per_node = 2});
  const auto result = runner.Run(Diamond());
  ASSERT_TRUE(result.status.ok()) << result.status;
  ASSERT_EQ(result.stages.size(), 3u);
  EXPECT_EQ(result.stages[0].stage, "stage_in");
  EXPECT_EQ(result.stages[1].stage, "fan");
  EXPECT_EQ(result.stages[2].stage, "join");
  EXPECT_EQ(result.stages[1].tasks, 2u);
  // The join starts only after both fans finished.
  EXPECT_GE(result.stages[2].first_start, result.stages[1].last_end);
  EXPECT_EQ(result.bytes_written, KiB(700) + KiB(600) + KiB(100));
  EXPECT_EQ(result.bytes_read, KiB(700) * 2 + KiB(600));
}

TEST(RunnerTest, ReadVerificationCatchesCorruption) {
  // A workflow whose input has no producer and does not exist fails loudly.
  workloads::Testbed cluster(workloads::FsKind::kMemFs, BedConfig(2));
  UniformScheduler scheduler;
  Runner runner(cluster.simulation(), *cluster.memfs(), scheduler,
                {.nodes = 2, .cores_per_node = 1});
  Workflow wf = SingleTask("t", {"/missing"});
  wf.name = "broken";
  const auto result = runner.Run(wf);
  EXPECT_FALSE(result.status.ok());
  EXPECT_EQ(result.failed_task, "t");
}

TEST(RunnerTest, CorruptReadFailsTheRun) {
  // Reads are always verified: one read of a BLAST fragment that returns
  // the wrong bytes fails the run, naming the file.
  workloads::Testbed cluster(workloads::FsKind::kMemFs, BedConfig(2));
  const std::string fragment = "/blast/raw/frag_00000.fa";
  memfs::testing::CorruptReadVfs vfs(cluster.simulation(), *cluster.memfs(),
                                     fragment);
  UniformScheduler scheduler;
  Runner runner(cluster.simulation(), vfs, scheduler,
                {.nodes = 2, .cores_per_node = 2});
  workloads::BlastParams params;
  params.task_scale = 256;
  params.size_scale = 1024;
  const auto result = runner.Run(workloads::BuildBlast(params));
  EXPECT_TRUE(vfs.corrupted());
  EXPECT_EQ(result.status.code(), ErrorCode::kInternal);
  EXPECT_NE(result.status.message().find("content mismatch in " + fragment),
            std::string::npos)
      << result.status;
  EXPECT_EQ(result.failed_task, "formatdb-00000");
}

TEST(RunnerTest, NoCoresFailsTheRun) {
  // With no core slot no task can run. The driver waits for a completion
  // that never comes, and the run fails instead of reporting an empty
  // success (Release builds compile asserts out).
  workloads::Testbed cluster(workloads::FsKind::kMemFs, BedConfig(2));
  UniformScheduler scheduler;
  trace::Tracer tracer(cluster.simulation());
  Runner runner(cluster.simulation(), *cluster.memfs(), scheduler,
                {.nodes = 2, .cores_per_node = 0, .tracer = &tracer});
  const auto result = runner.Run(Diamond());
  EXPECT_EQ(result.status.code(), ErrorCode::kInternal);
  EXPECT_EQ(result.status.message(),
            "workflow driver did not finish: 4 of 4 tasks not run");
  EXPECT_TRUE(result.stages.empty());
  EXPECT_EQ(result.bytes_written, 0u);
  // The workflow root span is ended.
  EXPECT_NE(result.trace_id, 0u);
  EXPECT_EQ(tracer.open_spans(), 0u);
}

TEST(RunnerTest, StalledWorkflowReported) {
  workloads::Testbed cluster(workloads::FsKind::kMemFs, BedConfig(1));
  UniformScheduler scheduler;
  Runner runner(cluster.simulation(), *cluster.memfs(), scheduler,
                {.nodes = 1, .cores_per_node = 1});
  // Two tasks that consume each other's outputs: a dependency cycle.
  Workflow wf;
  wf.name = "cycle";
  const FileId x = wf.AddFile("/x", 10);
  const FileId y = wf.AddFile("/y", 10);
  wf.AddTask("a", "s", std::array{x}, std::array{y});
  wf.AddTask("b", "s", std::array{y}, std::array{x});
  const auto result = runner.Run(wf);
  EXPECT_FALSE(result.status.ok());
}

// MemFS files are write-once; this view lets a second producer of a path
// replace the file (unlink, then create again), so a workflow with two
// producers of one file can run to completion. Everything else forwards.
class RewritableVfs final : public fs::Vfs {
 public:
  RewritableVfs(sim::Simulation& sim, fs::Vfs& inner)
      : sim_(sim), inner_(inner) {}

  sim::Simulation& simulation() const { return sim_; }

  sim::Future<Result<fs::FileHandle>> Create(fs::VfsContext ctx,
                                             std::string path) override {
    auto created = co_await inner_.Create(ctx, path);
    if (created.ok() || created.status().code() != ErrorCode::kExists) {
      co_return created;
    }
    Status removed = co_await inner_.Unlink(ctx, path);
    if (!removed.ok()) co_return removed;
    co_return co_await inner_.Create(ctx, std::move(path));
  }
  sim::Future<Result<fs::FileHandle>> Open(fs::VfsContext ctx,
                                           std::string path) override {
    return inner_.Open(ctx, std::move(path));
  }
  sim::Future<Status> Write(fs::VfsContext ctx, fs::FileHandle handle,
                            Bytes data) override {
    return inner_.Write(ctx, handle, std::move(data));
  }
  sim::Future<Result<Bytes>> Read(fs::VfsContext ctx, fs::FileHandle handle,
                                  std::uint64_t offset,
                                  std::uint64_t length) override {
    return inner_.Read(ctx, handle, offset, length);
  }
  sim::Future<Status> Flush(fs::VfsContext ctx,
                            fs::FileHandle handle) override {
    return inner_.Flush(ctx, handle);
  }
  sim::Future<Status> Close(fs::VfsContext ctx,
                            fs::FileHandle handle) override {
    return inner_.Close(ctx, handle);
  }
  sim::Future<Status> Mkdir(fs::VfsContext ctx, std::string path) override {
    return inner_.Mkdir(ctx, std::move(path));
  }
  sim::Future<Result<std::vector<fs::FileInfo>>> ReadDir(
      fs::VfsContext ctx, std::string path) override {
    return inner_.ReadDir(ctx, std::move(path));
  }
  sim::Future<Result<fs::DirPage>> ReadDirPage(fs::VfsContext ctx,
                                               std::string path,
                                               fs::DirCursor cursor,
                                               std::uint32_t limit) override {
    return inner_.ReadDirPage(ctx, std::move(path), cursor, limit);
  }
  sim::Future<Result<fs::FileInfo>> Stat(fs::VfsContext ctx,
                                         std::string path) override {
    return inner_.Stat(ctx, std::move(path));
  }
  sim::Future<Status> Unlink(fs::VfsContext ctx, std::string path) override {
    return inner_.Unlink(ctx, std::move(path));
  }
  sim::Future<Status> Rmdir(fs::VfsContext ctx, std::string path) override {
    return inner_.Rmdir(ctx, std::move(path));
  }
  sim::Future<Status> Rename(fs::VfsContext ctx, std::string from,
                             std::string to) override {
    return inner_.Rename(ctx, std::move(from), std::move(to));
  }
  sim::Future<Status> Link(fs::VfsContext ctx, std::string existing,
                           std::string link) override {
    return inner_.Link(ctx, std::move(existing), std::move(link));
  }

 private:
  sim::Simulation& sim_;
  fs::Vfs& inner_;
};

TEST(WorkflowTest, SecondProducerDoesNotReleaseAgain) {
  // /x has two producers; "early" reads only /x, "join" reads /x and /y.
  // The first producer to complete releases both consumers' /x dependency;
  // the second producer's completion must not count again, or "join" would
  // start before /y exists.
  workloads::Testbed cluster(workloads::FsKind::kMemFs, BedConfig(1));
  RewritableVfs vfs(cluster.simulation(), *cluster.memfs());
  UniformScheduler scheduler;
  Runner runner(cluster.simulation(), vfs, scheduler,
                {.nodes = 1, .cores_per_node = 4});
  Workflow wf;
  wf.name = "two_producers";
  wf.directories = {"/d"};
  const FileId x = wf.AddFile("/d/x", KiB(4));
  const FileId y = wf.AddFile("/d/y", KiB(4));
  const FileId early_out = wf.AddFile("/d/early", KiB(1));
  const FileId join_out = wf.AddFile("/d/join", KiB(1));
  wf.AddTask("first", "first", {}, std::array{x});
  wf.AddTask("second", "second", {}, std::array{x}, units::Millis(20));
  wf.AddTask("slow", "slow", {}, std::array{y}, units::Millis(50));
  wf.AddTask("early", "early", std::array{x}, std::array{early_out});
  wf.AddTask("join", "join", std::array{x, y}, std::array{join_out});
  const auto result = runner.Run(wf);
  ASSERT_TRUE(result.status.ok()) << result.status;

  const StageStats* first = result.Stage("first");
  const StageStats* second = result.Stage("second");
  const StageStats* slow = result.Stage("slow");
  const StageStats* early = result.Stage("early");
  const StageStats* join = result.Stage("join");
  ASSERT_TRUE(first && second && slow && early && join);
  EXPECT_EQ(early->tasks, 1u);
  EXPECT_EQ(join->tasks, 1u);
  // Released by the first producer, not the second.
  EXPECT_GE(early->first_start, first->last_end);
  EXPECT_LT(early->first_start, second->last_end);
  EXPECT_GE(join->first_start, slow->last_end);
}

TEST(WorkflowTest, InputWithoutProducerIsPreexisting) {
  workloads::Testbed cluster(workloads::FsKind::kMemFs, BedConfig(2));
  UniformScheduler scheduler;
  Runner runner(cluster.simulation(), *cluster.memfs(), scheduler,
                {.nodes = 2, .cores_per_node = 1});
  // An earlier run leaves /pre/data behind.
  Workflow seed;
  seed.name = "seed";
  seed.directories = {"/pre"};
  const FileId written = seed.AddFile("/pre/data", KiB(96));
  seed.AddTask("write", "seed", {}, std::array{written});
  ASSERT_TRUE(runner.Run(seed).status.ok());

  // A workflow naming it without a producer runs its reader at once.
  Workflow wf;
  wf.name = "reader";
  const FileId data = wf.AddFile("/pre/data");
  wf.AddTask("read", "read", std::array{data}, {});
  const auto result = runner.Run(wf);
  ASSERT_TRUE(result.status.ok()) << result.status;
  EXPECT_EQ(result.bytes_read, KiB(96));
  EXPECT_EQ(result.bytes_written, 0u);
}

TEST(WorkflowTest, DuplicateInputWaitsOnItTwice) {
  // A task listing one produced input twice holds two waits on it; its
  // producer's completion clears both, and the task reads the file twice.
  workloads::Testbed cluster(workloads::FsKind::kMemFs, BedConfig(2));
  UniformScheduler scheduler;
  Runner runner(cluster.simulation(), *cluster.memfs(), scheduler,
                {.nodes = 2, .cores_per_node = 2});
  Workflow wf;
  wf.name = "twice";
  wf.directories = {"/t"};
  const FileId data = wf.AddFile("/t/data", KiB(64));
  const FileId out = wf.AddFile("/t/out", KiB(8));
  wf.AddTask("make", "make", {}, std::array{data}, units::Millis(5));
  wf.AddTask("use", "use", std::array{data, data}, std::array{out});
  EXPECT_EQ(wf.Inputs(wf.tasks[1]).size(), 2u);
  const auto result = runner.Run(wf);
  ASSERT_TRUE(result.status.ok()) << result.status;
  ASSERT_EQ(result.stages.size(), 2u);
  EXPECT_EQ(result.stages[1].stage, "use");
  EXPECT_GE(result.stages[1].first_start, result.stages[0].last_end);
  EXPECT_EQ(result.bytes_read, KiB(64) * 2);
}

TEST(RunnerTest, MoreTasksThanCores) {
  workloads::Testbed cluster(workloads::FsKind::kMemFs, BedConfig(2));
  UniformScheduler scheduler;
  Runner runner(cluster.simulation(), *cluster.memfs(), scheduler,
                {.nodes = 2, .cores_per_node = 2});
  Workflow wf;
  wf.name = "wide";
  wf.directories = {"/w"};
  for (int i = 0; i < 20; ++i) {
    const FileId out = wf.AddFile("/w/f" + std::to_string(i), KiB(64));
    wf.AddTask("t" + std::to_string(i), "wide", {}, std::array{out},
               units::Millis(50));
  }
  const auto result = runner.Run(wf);
  ASSERT_TRUE(result.status.ok()) << result.status;
  // 20 tasks, 4 cores, 50 ms each -> at least 5 waves.
  EXPECT_GE(result.finished - result.started, units::Millis(250));
}

TEST(RunnerTest, VerticalScalingReducesMakespan) {
  auto run_with_cores = [](std::uint32_t cores) {
    workloads::Testbed cluster(workloads::FsKind::kMemFs, BedConfig(4));
    UniformScheduler scheduler;
    Runner runner(cluster.simulation(), *cluster.memfs(), scheduler,
                  {.nodes = 4, .cores_per_node = cores});
    Workflow wf;
    wf.name = "scale";
    wf.directories = {"/s"};
    for (int i = 0; i < 32; ++i) {
      const FileId out = wf.AddFile("/s/f" + std::to_string(i), KiB(16));
      wf.AddTask("t" + std::to_string(i), "cpu", {}, std::array{out},
                 units::Millis(100));
    }
    return runner.Run(wf).MakespanSeconds();
  };
  EXPECT_GT(run_with_cores(1), run_with_cores(4) * 2);
}

TEST(RunnerTest, WidthLimitedParallelism) {
  // 12 pure-CPU tasks (no file I/O) on 2 nodes x 3 cores run in exactly
  // ceil(12/6) = 2 waves: the runner never oversubscribes core slots, and
  // with nothing else to wait on the makespan is exactly two task lengths.
  workloads::Testbed cluster(workloads::FsKind::kMemFs, BedConfig(2));
  UniformScheduler scheduler;
  Runner runner(cluster.simulation(), *cluster.memfs(), scheduler,
                {.nodes = 2, .cores_per_node = 3});
  Workflow wf;
  wf.name = "pure_cpu";
  for (int i = 0; i < 12; ++i) {
    wf.AddTask("t" + std::to_string(i), "cpu", {}, {}, units::Millis(20));
  }
  const auto result = runner.Run(wf);
  ASSERT_TRUE(result.status.ok()) << result.status;
  EXPECT_EQ(result.finished - result.started, units::Millis(40));
  ASSERT_EQ(result.stages.size(), 1u);
  EXPECT_EQ(result.stages[0].tasks, 12u);
  EXPECT_EQ(result.stages[0].busy, units::Millis(20) * 12);
}

TEST(RunnerTest, MetricsRecordTasksAndBytes) {
  MetricsRegistry metrics;
  // The stack records into the same registry the runner reports into, so
  // one report covers workflow counters and storage latencies together.
  workloads::TestbedConfig bed_config = BedConfig(2);
  bed_config.metrics = &metrics;
  workloads::Testbed cluster(workloads::FsKind::kMemFs, bed_config);
  UniformScheduler scheduler;
  RunnerConfig config;
  config.nodes = 2;
  config.cores_per_node = 2;
  config.metrics = &metrics;
  Runner runner(cluster.simulation(), *cluster.memfs(), scheduler, config);
  const auto result = runner.Run(Diamond());
  ASSERT_TRUE(result.status.ok()) << result.status;

  EXPECT_EQ(metrics.CounterValue("mtc.tasks_run"), 4u);
  EXPECT_EQ(metrics.CounterValue("mtc.task_failures"), 0u);
  EXPECT_EQ(metrics.CounterValue("mtc.bytes_read"), result.bytes_read);
  EXPECT_EQ(metrics.CounterValue("mtc.bytes_written"), result.bytes_written);
  // One duration sample per task, bounded by the makespan.
  EXPECT_EQ(metrics.Histogram("mtc.task").count(), 4u);
  EXPECT_LE(metrics.Histogram("mtc.task").max_nanos(),
            result.finished - result.started);
  // The storage layer recorded through the same registry.
  EXPECT_GT(metrics.Histogram("vfs.write").count(), 0u);
}

TEST(RunnerTest, FailedTaskCountedInMetrics) {
  workloads::Testbed cluster(workloads::FsKind::kMemFs, BedConfig(1));
  MetricsRegistry metrics;
  UniformScheduler scheduler;
  RunnerConfig config;
  config.nodes = 1;
  config.cores_per_node = 1;
  config.metrics = &metrics;
  Runner runner(cluster.simulation(), *cluster.memfs(), scheduler, config);
  Workflow wf = SingleTask("t", {"/missing"});
  wf.name = "broken";
  const auto result = runner.Run(wf);
  EXPECT_FALSE(result.status.ok());
  EXPECT_EQ(metrics.CounterValue("mtc.tasks_run"), 1u);
  EXPECT_EQ(metrics.CounterValue("mtc.task_failures"), 1u);
}

// --- Schedulers ---

TEST(UniformSchedulerTest, RoundRobinOverFreeNodes) {
  UniformScheduler scheduler;
  const Workflow wf = SingleTask("t");
  const std::size_t task = 0;
  std::vector<std::uint32_t> free = {1, 1, 1};
  EXPECT_EQ(scheduler.Place(wf, task, free), 0u);
  EXPECT_EQ(scheduler.Place(wf, task, free), 1u);
  EXPECT_EQ(scheduler.Place(wf, task, free), 2u);
  EXPECT_EQ(scheduler.Place(wf, task, free), 0u);
}

TEST(UniformSchedulerTest, SkipsBusyNodes) {
  UniformScheduler scheduler;
  const Workflow wf = SingleTask("t");
  const std::size_t task = 0;
  std::vector<std::uint32_t> free = {0, 1, 0};
  EXPECT_EQ(scheduler.Place(wf, task, free), 1u);
  free = {0, 0, 0};
  EXPECT_EQ(scheduler.Place(wf, task, free), std::nullopt);
}

class LocalitySchedulerTest : public ::testing::Test {
 protected:
  void StoreFile(net::NodeId node, const std::string& path,
                 std::uint64_t size) {
    bool done = false;
    Status status;
    [](amfs::Amfs& fs, net::NodeId n, std::string p, std::uint64_t s,
       Status& out, bool& flag) -> sim::Task {
      fs::VfsContext ctx{n, 0};
      auto created = co_await fs.Create(ctx, p);
      if (created.ok()) {
        (void)co_await fs.Write(ctx, created.value(), Bytes::Synthetic(s, 1));
        out = co_await fs.Close(ctx, created.value());
      } else {
        out = created.status();
      }
      flag = true;
    }(amfs_, node, path, size, status, done);
    sim_.Run();
    ASSERT_TRUE(done && status.ok());
  }

  workloads::Testbed bed_{workloads::FsKind::kAmfs, BedConfig(4)};
  sim::Simulation& sim_ = bed_.simulation();
  amfs::Amfs& amfs_ = *bed_.amfs();
};

TEST_F(LocalitySchedulerTest, FollowsFirstInput) {
  StoreFile(2, "/data", KiB(10));
  LocalityScheduler scheduler(amfs_);
  const Workflow wf = SingleTask("t", {"/data"});
  std::vector<std::uint32_t> free = {1, 1, 1, 1};
  EXPECT_EQ(scheduler.Place(wf, 0, free), 2u);
}

TEST_F(LocalitySchedulerTest, DefersWhenPreferredBusy) {
  StoreFile(1, "/busy", KiB(10));
  LocalityScheduler scheduler(amfs_);
  const Workflow wf = SingleTask("t", {"/busy"});
  std::vector<std::uint32_t> free = {1, 0, 1, 1};
  EXPECT_EQ(scheduler.Place(wf, 0, free), std::nullopt);
}

TEST_F(LocalitySchedulerTest, PatienceEventuallyRunsAnywhere) {
  StoreFile(1, "/starve", KiB(10));
  LocalityScheduler scheduler(amfs_);
  scheduler.set_patience(3);
  const Workflow wf = SingleTask("t", {"/starve"});
  const std::size_t task = 0;
  std::vector<std::uint32_t> free = {1, 0, 1, 1};
  EXPECT_EQ(scheduler.Place(wf, task, free), std::nullopt);
  EXPECT_EQ(scheduler.Place(wf, task, free), std::nullopt);
  EXPECT_EQ(scheduler.Place(wf, task, free), std::nullopt);
  EXPECT_TRUE(scheduler.Place(wf, task, free).has_value());
}

TEST_F(LocalitySchedulerTest, AggregationGoesToDataHeavyNode) {
  StoreFile(3, "/agg0", KiB(10));
  StoreFile(3, "/agg1", KiB(10));
  StoreFile(0, "/agg2", KiB(10));
  LocalityScheduler scheduler(amfs_);
  const Workflow wf = SingleTask("agg", {"/agg0", "/agg1", "/agg2"});
  std::vector<std::uint32_t> free = {1, 1, 1, 1};
  EXPECT_EQ(scheduler.Place(wf, 0, free), 3u);
}

TEST_F(LocalitySchedulerTest, NoInputTasksRoundRobin) {
  LocalityScheduler scheduler(amfs_);
  const Workflow wf = SingleTask("src");
  std::vector<std::uint32_t> free = {1, 1, 1, 1};
  std::set<std::uint32_t> seen;
  for (int i = 0; i < 4; ++i) {
    seen.insert(*scheduler.Place(wf, 0, free));
  }
  EXPECT_EQ(seen.size(), 4u);
}

// --- Workload generators ---

TEST(MontageTest, StructureMatchesPaper) {
  workloads::MontageParams params;
  params.degree = 6;
  params.task_scale = 64;  // keep the test small
  const Workflow wf = workloads::BuildMontage(params);

  std::unordered_map<std::string, int> stage_counts;
  for (const auto& task : wf.tasks) {
    ++stage_counts[std::string(wf.StageName(task))];
  }

  const int images = stage_counts["stage_in"];
  EXPECT_EQ(stage_counts["mProjectPP"], images);
  EXPECT_EQ(stage_counts["mBackground"], images);
  EXPECT_GT(stage_counts["mDiffFit"], images);      // ~3 pairs per image
  EXPECT_LE(stage_counts["mDiffFit"], images * 3);
  EXPECT_EQ(stage_counts["mImgTbl"], 1);
  EXPECT_EQ(stage_counts["mConcatFit"], 1);
  EXPECT_EQ(stage_counts["mBgModel"], 1);
  EXPECT_EQ(stage_counts["mAdd"], 1);

  // Every mDiffFit task reads exactly two projected files.
  for (const auto& task : wf.tasks) {
    if (wf.StageName(task) == "mDiffFit") {
      EXPECT_EQ(wf.Inputs(task).size(), 2u);
    }
  }
}

TEST(MontageTest, NoMissingProducers) {
  workloads::MontageParams params;
  params.task_scale = 128;
  const Workflow wf = workloads::BuildMontage(params);
  const std::vector<bool> produced = Produced(wf);
  for (const auto& task : wf.tasks) {
    for (FileId input : wf.Inputs(task)) {
      EXPECT_TRUE(produced[input]) << wf.Path(input);
    }
  }
}

TEST(MontageTest, ScaleGrowsWithDegree) {
  EXPECT_EQ(workloads::MontageImageCount(6), 2488u);
  EXPECT_EQ(workloads::MontageImageCount(12), 2488u * 4);
  EXPECT_EQ(workloads::MontageImageCount(16), 2488u * 256 / 36);
  workloads::MontageParams small;
  small.degree = 6;
  small.task_scale = 32;
  workloads::MontageParams large;
  large.degree = 12;
  large.task_scale = 32;
  EXPECT_GT(workloads::BuildMontage(large).TotalOutputBytes(),
            workloads::BuildMontage(small).TotalOutputBytes() * 3);
}

TEST(BlastTest, StructureMatchesPaper) {
  workloads::BlastParams params;
  params.fragments = 32;
  params.queries_per_fragment = 4;
  const Workflow wf = workloads::BuildBlast(params);

  std::unordered_map<std::string, int> stage_counts;
  for (const auto& task : wf.tasks) {
    ++stage_counts[std::string(wf.StageName(task))];
  }
  EXPECT_EQ(stage_counts["formatdb"], 32);
  EXPECT_EQ(stage_counts["blastall"], 128);
  EXPECT_EQ(stage_counts["merge"], 16);

  for (const auto& task : wf.tasks) {
    if (wf.StageName(task) == "blastall") {
      EXPECT_EQ(wf.Inputs(task).size(), 2u);
    }
  }
  const std::vector<bool> produced = Produced(wf);
  for (const auto& task : wf.tasks) {
    for (FileId input : wf.Inputs(task)) {
      EXPECT_TRUE(produced[input]) << wf.Path(input);
    }
  }
}

TEST(BlastTest, FragmentSizeTracksDatabaseSplit) {
  workloads::BlastParams das4;
  das4.fragments = 512;
  workloads::BlastParams ec2;
  ec2.fragments = 1024;
  // Same database, double the fragments -> half the fragment size; the total
  // runtime data stays comparable (the paper's EC2-vs-DAS4 argument).
  const auto das4_bytes = workloads::BuildBlast(das4).TotalOutputBytes();
  const auto ec2_bytes = workloads::BuildBlast(ec2).TotalOutputBytes();
  EXPECT_NEAR(static_cast<double>(das4_bytes) /
                  static_cast<double>(ec2_bytes),
              1.0, 0.25);
}

TEST(FileSeedTest, StableAndDistinct) {
  EXPECT_EQ(FileSeed("/a"), FileSeed("/a"));
  EXPECT_NE(FileSeed("/a"), FileSeed("/b"));
}

// FNV-1a over every field a builder sets: the workflow name, the
// directories, each file's path and size, and each task's name, stage,
// cpu_time, inputs and outputs. Strings and lists are length-prefixed and
// integers fed as 8 little-endian bytes, so the digest does not depend on
// how the workflow stores them.
std::uint64_t BuilderDigest(const Workflow& wf) {
  std::uint64_t hash = 0xcbf29ce484222325ull;
  auto byte = [&hash](unsigned char b) {
    hash ^= b;
    hash *= 0x100000001b3ull;
  };
  auto u64 = [&byte](std::uint64_t v) {
    for (int i = 0; i < 8; ++i) byte(static_cast<unsigned char>(v >> (8 * i)));
  };
  auto str = [&](std::string_view s) {
    u64(s.size());
    for (char c : s) byte(static_cast<unsigned char>(c));
  };
  str(wf.name);
  u64(wf.directories.size());
  for (const std::string& dir : wf.directories) str(dir);
  u64(wf.files.size());
  for (FileId id = 0; id < wf.files.size(); ++id) {
    str(wf.Path(id));
    u64(wf.files[id].size);
  }
  u64(wf.tasks.size());
  for (std::size_t i = 0; i < wf.tasks.size(); ++i) {
    const TaskSpec& task = wf.tasks[i];
    str(wf.TaskName(i));
    str(wf.StageName(task));
    u64(static_cast<std::uint64_t>(task.cpu_time));
    u64(wf.Inputs(task).size());
    for (FileId id : wf.Inputs(task)) u64(id);
    u64(wf.Outputs(task).size());
    for (FileId id : wf.Outputs(task)) u64(id);
  }
  return hash;
}

// The generators' output, pinned field by field: Montage-12 at the
// benchmark's scales (29,577 tasks) and BLAST at 512 fragments x 16 queries.
// The digests were taken when every path and name was its own std::string,
// so they hold the string table to byte-identical builder output.
TEST(WorkflowGoldenTest, BuildersAreByteIdentical) {
  workloads::MontageParams montage;
  montage.degree = 12;
  montage.task_scale = 2;
  montage.size_scale = 16;
  EXPECT_EQ(BuilderDigest(workloads::BuildMontage(montage)),
            0x8406456e4ef7b972ull);
  montage.project_cpu_s = 6.0;
  EXPECT_EQ(BuilderDigest(workloads::BuildMontage(montage)),
            0xe7492f5850157ce6ull);

  workloads::BlastParams blast;
  blast.fragments = 512;
  blast.queries_per_fragment = 16;
  blast.size_scale = 16;
  EXPECT_EQ(BuilderDigest(workloads::BuildBlast(blast)),
            0xbb4ffddf606718beull);
}

// The accessors read back exactly what the builders passed in.
TEST(WorkflowGoldenTest, AccessorsReturnWhatWasAdded) {
  const Workflow wf = Diamond();
  EXPECT_EQ(wf.Path(0), "/wf/src");
  EXPECT_EQ(wf.Path(3), "/wf/out");
  EXPECT_EQ(wf.TaskName(0), "in");
  EXPECT_EQ(wf.TaskName(3), "join");
  EXPECT_EQ(wf.StageName(wf.tasks[1]), "fan");
  EXPECT_EQ(wf.StageName(wf.tasks[2]), "fan");
  EXPECT_EQ(wf.tasks[1].stage, wf.tasks[2].stage);
  EXPECT_EQ(wf.stages.size(), 3u);
  EXPECT_EQ(wf.strings, "/wf/src/wf/l/wf/r/wf/outinleftrightjoin");
}

}  // namespace
}  // namespace memfs::mtc
