// Tests for the flag parser and the Chrome trace export.
#include <algorithm>
#include <deque>
#include <sstream>
#include <string>

#include <gtest/gtest.h>

#include "common/flags.h"
#include "mtc/runner.h"
#include "mtc/scheduler.h"
#include "trace/export.h"
#include "trace/trace.h"
#include "workloads/montage.h"
#include "workloads/testbed.h"

namespace memfs {
namespace {

// --- FlagParser ---

FlagParser Parse(std::vector<std::string> args) {
  static std::vector<std::string> storage;
  storage = std::move(args);
  storage.insert(storage.begin(), "prog");
  std::vector<char*> argv;
  for (auto& arg : storage) argv.push_back(arg.data());
  return FlagParser(static_cast<int>(argv.size()), argv.data());
}

TEST(FlagParserTest, EqualsForm) {
  auto flags = Parse({"--nodes=16", "--fs=amfs"});
  EXPECT_EQ(flags.GetUint("nodes", 1), 16u);
  EXPECT_EQ(flags.GetString("fs", "memfs"), "amfs");
}

TEST(FlagParserTest, SpaceForm) {
  auto flags = Parse({"--nodes", "32", "--fs", "diskpfs"});
  EXPECT_EQ(flags.GetUint("nodes", 1), 32u);
  EXPECT_EQ(flags.GetString("fs", ""), "diskpfs");
}

TEST(FlagParserTest, DefaultsWhenAbsent) {
  auto flags = Parse({});
  EXPECT_EQ(flags.GetUint("nodes", 7), 7u);
  EXPECT_EQ(flags.GetString("fs", "memfs"), "memfs");
  EXPECT_FALSE(flags.GetBool("csv"));
  EXPECT_DOUBLE_EQ(flags.GetDouble("x", 2.5), 2.5);
}

TEST(FlagParserTest, BareSwitchIsTrue) {
  auto flags = Parse({"--csv", "--ketama"});
  EXPECT_TRUE(flags.GetBool("csv"));
  EXPECT_TRUE(flags.GetBool("ketama"));
}

TEST(FlagParserTest, BooleanValues) {
  auto flags = Parse({"--a=true", "--b=0", "--c=yes", "--d=off"});
  EXPECT_TRUE(flags.GetBool("a"));
  EXPECT_FALSE(flags.GetBool("b"));
  EXPECT_TRUE(flags.GetBool("c"));
  EXPECT_FALSE(flags.GetBool("d"));
}

TEST(FlagParserTest, MalformedNumbersFallBack) {
  auto flags = Parse({"--nodes=abc", "--rate=1.5x"});
  EXPECT_EQ(flags.GetUint("nodes", 9), 9u);
  EXPECT_DOUBLE_EQ(flags.GetDouble("rate", 3.0), 3.0);
}

TEST(FlagParserTest, PositionalArguments) {
  auto flags = Parse({"run", "--nodes=4", "fast"});
  // "fast" follows a flag with a value already attached via '='.
  EXPECT_EQ(flags.positional().size(), 2u);
  EXPECT_EQ(flags.positional()[0], "run");
  EXPECT_EQ(flags.positional()[1], "fast");
}

TEST(FlagParserTest, UnknownFlagsDetected) {
  auto flags = Parse({"--nodes=4", "--typo=1"});
  (void)flags.GetUint("nodes", 1);
  const auto unknown = flags.UnknownFlags();
  ASSERT_EQ(unknown.size(), 1u);
  EXPECT_EQ(unknown[0], "typo");
}

TEST(FlagParserTest, DoubleParsing) {
  auto flags = Parse({"--rate=2.75"});
  EXPECT_DOUBLE_EQ(flags.GetDouble("rate", 0.0), 2.75);
}

// --- Chrome trace export (trace::WriteChromeTrace) ---

// Spans are {trace, span, parent, name, category, start, end, node, events,
// args}.
std::string ChromeTrace(const std::deque<trace::SpanRecord>& spans) {
  std::ostringstream os;
  trace::WriteChromeTrace(os, spans);
  return os.str();
}

TEST(TraceRecorderTest, SpansAndJsonStructure) {
  const std::string json = ChromeTrace(
      {{1, 1, 0, "taskA", "stage1", 1000, 5000, 0, {{"server down", 2500}}, {}},
       {1, 2, 0, "taskB", "stage2", 2000, 3000, 1, {}, {}}});
  EXPECT_NE(json.find("\"traceEvents\""), std::string::npos);
  EXPECT_NE(json.find("\"taskA\""), std::string::npos);
  EXPECT_NE(json.find("\"ph\":\"X\""), std::string::npos);
  EXPECT_NE(json.find("\"ph\":\"i\""), std::string::npos);
  EXPECT_NE(json.find("\"process_name\""), std::string::npos);
  // Duration of taskA: 4000 ns = 4 us.
  EXPECT_NE(json.find("\"dur\":4.000"), std::string::npos);
  // Balanced braces/brackets (cheap well-formedness check).
  EXPECT_EQ(std::count(json.begin(), json.end(), '{'),
            std::count(json.begin(), json.end(), '}'));
  EXPECT_EQ(std::count(json.begin(), json.end(), '['),
            std::count(json.begin(), json.end(), ']'));
}

TEST(TraceRecorderTest, EscapesSpecialCharacters) {
  const std::string json =
      ChromeTrace({{1, 1, 0, "name\"with\\quote", "cat", 0, 1, 0, {}, {}}});
  EXPECT_NE(json.find("name\\\"with\\\\quote"), std::string::npos);
}

TEST(TraceRecorderTest, NegativeDurationClamped) {
  // The tracer stamps both ends from the sim clock, so a span is never
  // negative; the shortest is zero-length and must export as such.
  const std::string json =
      ChromeTrace({{1, 1, 0, "instant", "cat", 100, 100, 0, {}, {}}});
  EXPECT_NE(json.find("\"dur\":0.000"), std::string::npos);
}

TEST(TraceRecorderTest, WorkflowRunProducesOneSpanPerTask) {
  workloads::TestbedConfig config;
  config.nodes = 4;
  workloads::Testbed bed(workloads::FsKind::kMemFs, config);

  workloads::MontageParams params;
  params.degree = 6;
  params.task_scale = 64;
  params.size_scale = 16;
  params.project_cpu_s = 0.5;
  const auto workflow = workloads::BuildMontage(params);

  trace::Tracer tracer(bed.simulation());
  mtc::UniformScheduler scheduler;
  mtc::RunnerConfig runner_config;
  runner_config.nodes = 4;
  runner_config.cores_per_node = 2;
  runner_config.tracer = &tracer;
  mtc::Runner runner(bed.simulation(), bed.vfs(), scheduler, runner_config);
  const auto result = runner.Run(workflow);
  ASSERT_TRUE(result.status.ok());

  std::size_t tasks = 0;
  for (const trace::SpanRecord& span : tracer.finished()) {
    if (span.category != "task") continue;
    ++tasks;
    EXPECT_LT(span.node, 4u);
    EXPECT_LE(span.start, span.end);
    std::uint64_t slot = ~0ull;
    for (const auto& [key, value] : span.args) {
      if (key == "slot") slot = std::stoull(value);
    }
    EXPECT_LT(slot, 2u) << span.name;
  }
  EXPECT_EQ(tasks, workflow.tasks.size());
}

}  // namespace
}  // namespace memfs
