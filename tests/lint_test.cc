// Static analyzer tests for the token rules: one fixture per rule plus the
// suppression grammar and audit, exercised through the in-memory
// Analyzer::AddSource API (the same engine the `analyze` ctest runs over the
// repo via the CLI).
#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "analyze/analyzer.h"

namespace memfs::analyze {
namespace {

std::vector<Finding> Lint(const std::string& path,
                          const std::string& contents,
                          bool include_suppressed = false) {
  Analyzer analyzer;
  analyzer.AddSource(path, contents);
  return analyzer.Run(include_suppressed);
}

int CountRule(const std::vector<Finding>& findings, const std::string& rule) {
  int count = 0;
  for (const Finding& finding : findings) {
    if (finding.rule == rule) ++count;
  }
  return count;
}

TEST(LintIgnoredStatusTest, BareStatusCallIsFlagged) {
  const auto findings = Lint("src/x/use.cc",
                             "Status Push(int v);\n"
                             "void Caller() {\n"
                             "  Push(1);\n"
                             "}\n");
  ASSERT_EQ(CountRule(findings, "ignored-status"), 1);
  EXPECT_EQ(findings[0].line, 3);
  EXPECT_NE(findings[0].message.find("'Push'"), std::string::npos);
}

TEST(LintIgnoredStatusTest, ConsumedStatusIsNotFlagged) {
  const auto findings = Lint("src/x/use.cc",
                             "Status Push(int v);\n"
                             "Status Caller() {\n"
                             "  Status s = Push(1);\n"
                             "  if (!s.ok()) return s;\n"
                             "  return Push(2);\n"
                             "}\n");
  EXPECT_EQ(CountRule(findings, "ignored-status"), 0);
}

TEST(LintIgnoredStatusTest, AwaitedStatusFutureIsFlagged) {
  const auto findings = Lint("src/x/use.cc",
                             "Future<Status> Send(int v);\n"
                             "void Caller() {\n"
                             "  co_await Send(2);\n"
                             "}\n");
  ASSERT_EQ(CountRule(findings, "ignored-status"), 1);
  EXPECT_EQ(findings[0].line, 3);
}

TEST(LintIgnoredStatusTest, AwaitedVoidFutureIsNotFlaggedButDroppedOneIs) {
  // Awaiting a VoidFuture consumes it correctly (the payload is Done);
  // dropping it outright is a fire-and-forget without a join.
  const std::string source =
      "VoidFuture Ping();\n"
      "void Caller() {\n"
      "  co_await Ping();\n"
      "  Ping();\n"
      "}\n";
  const auto findings = Lint("src/x/use.cc", source);
  ASSERT_EQ(CountRule(findings, "ignored-status"), 1);
  EXPECT_EQ(findings[0].line, 4);
}

TEST(LintIgnoredStatusTest, VoidOverloadDisablesTheName) {
  // A void overload that accepts the call's argument count makes the call
  // ambiguous without types, so it is never flagged.
  const auto findings = Lint("src/x/use.cc",
                             "Status Reset(int hard);\n"
                             "void Reset(bool soft);\n"
                             "void Caller() {\n"
                             "  Reset(1);\n"
                             "}\n");
  EXPECT_EQ(CountRule(findings, "ignored-status"), 0);
}

TEST(LintIgnoredStatusTest, VoidOverloadOfOtherArityDoesNotHideTheCall) {
  // `Close()` on a span is void; `Close(ctx, h)` on a file system returns a
  // future Status. Defaulted parameters are optional, so the void
  // `Close(int code = 0)` accepts zero or one argument, never two.
  const auto findings = Lint("src/x/use.cc",
                             "Future<Status> Close(Ctx ctx, Handle h);\n"
                             "void Close(int code = 0);\n"
                             "void Caller() {\n"
                             "  span.Close();\n"
                             "  span.Close(7);\n"
                             "  co_await vfs.Close(ctx, h);\n"
                             "}\n");
  ASSERT_EQ(CountRule(findings, "ignored-status"), 1);
  EXPECT_EQ(findings[0].line, 6);
}

TEST(LintAcquireReleaseTest, AcquireWithoutReleaseIsFlagged) {
  const auto findings = Lint("src/x/hold.cc",
                             "void Grab(Sem& sem) {\n"
                             "  sem.Acquire();\n"
                             "  DoWork();\n"
                             "}\n");
  ASSERT_EQ(CountRule(findings, "acquire-release"), 1);
  EXPECT_EQ(findings[0].line, 2);
}

TEST(LintAcquireReleaseTest, BalancedPairIsNotFlagged) {
  const auto findings = Lint("src/x/hold.cc",
                             "void Grab(Sem& sem) {\n"
                             "  sem.Acquire();\n"
                             "  DoWork();\n"
                             "  sem.Release();\n"
                             "}\n");
  EXPECT_EQ(CountRule(findings, "acquire-release"), 0);
}

TEST(LintNondeterminismTest, BannedSourcesAreFlagged) {
  const auto findings = Lint("src/x/entropy.cc",
                             "int A() { return std::rand(); }\n"
                             "int B() { return time(nullptr); }\n"
                             "std::random_device Dev();\n");
  EXPECT_EQ(CountRule(findings, "nondeterminism"), 3);
}

TEST(LintNondeterminismTest, WallClockAllowedUnderSimOnly) {
  const std::string source =
      "void Tick() { auto t = std::chrono::steady_clock::now(); }\n";
  EXPECT_EQ(CountRule(Lint("src/net/clock.cc", source), "nondeterminism"), 1);
  EXPECT_EQ(CountRule(Lint("src/sim/clock.cc", source), "nondeterminism"), 0);
}

TEST(LintHeaderHygieneTest, MissingPragmaOnceIsFlaggedInHeadersOnly) {
  const std::string source = "int x;\n";
  const auto header = Lint("src/x/thing.h", source);
  ASSERT_EQ(CountRule(header, "pragma-once"), 1);
  EXPECT_EQ(header[0].line, 1);
  EXPECT_EQ(CountRule(Lint("src/x/thing.cc", source), "pragma-once"), 0);
  EXPECT_EQ(CountRule(Lint("src/x/ok.h", "#pragma once\nint x;\n"),
                      "pragma-once"),
            0);
}

TEST(LintHeaderHygieneTest, UsingNamespaceInHeaderIsFlagged) {
  const auto findings = Lint("src/x/leak.h",
                             "#pragma once\n"
                             "using namespace std;\n");
  ASSERT_EQ(CountRule(findings, "using-namespace"), 1);
  EXPECT_EQ(findings[0].line, 2);
}

TEST(LintSuppressionTest, AllowCommentSuppressesNextLine) {
  const std::string source =
      "Status Push(int v);\n"
      "void Caller() {\n"
      "  // lint: allow(ignored-status) fire-and-forget by design\n"
      "  Push(1);\n"
      "}\n";
  EXPECT_TRUE(Lint("src/x/use.cc", source).empty());

  // With include_suppressed the finding is still visible and marked.
  const auto all = Lint("src/x/use.cc", source, /*include_suppressed=*/true);
  ASSERT_EQ(all.size(), 1u);
  EXPECT_TRUE(all[0].suppressed);
  EXPECT_NE(Format(all[0]).find("[suppressed]"), std::string::npos);
}

TEST(LintSuppressionTest, SuppressionIsRuleSpecific) {
  // An allow() for a different rule does not mute the finding.
  const auto findings = Lint("src/x/use.cc",
                             "Status Push(int v);\n"
                             "void Caller() {\n"
                             "  // lint: allow(acquire-release) wrong rule\n"
                             "  Push(1);\n"
                             "}\n");
  EXPECT_EQ(CountRule(findings, "ignored-status"), 1);
}

TEST(LintSuppressionTest, CommaSeparatedRuleListIsHonored) {
  const auto findings =
      Lint("src/x/use.cc",
           "Status Push(int v);\n"
           "void Caller(Sem& sem) {\n"
           "  // lint: allow(ignored-status, acquire-release) protocol\n"
           "  Push(1);\n"
           "}\n");
  EXPECT_EQ(CountRule(findings, "ignored-status"), 0);
}

TEST(LintSuppressionAuditTest, UnknownRuleNameIsFlagged) {
  const auto findings = Lint("src/x/use.cc",
                             "void Caller() {\n"
                             "  // lint: allow(ignored-stauts) typo\n"
                             "  DoWork();\n"
                             "}\n");
  ASSERT_EQ(CountRule(findings, "allow-unknown"), 1);
  EXPECT_EQ(findings[0].line, 2);
  EXPECT_NE(findings[0].message.find("'ignored-stauts'"), std::string::npos);
}

TEST(LintSuppressionAuditTest, KnownRuleNamesPassTheAudit) {
  const auto findings =
      Lint("src/x/use.cc",
           "Status Push(int v);\n"
           "void Caller(Sem& sem) {\n"
           "  // lint: allow(ignored-status, acquire-release) protocol\n"
           "  Push(1);\n"
           "}\n");
  EXPECT_EQ(CountRule(findings, "allow-unknown"), 0);
}

TEST(LintSuppressionAuditTest, MixedListFlagsOnlyTheUnknownRule) {
  const auto findings = Lint("src/x/use.cc",
                             "Status Push(int v);\n"
                             "void Caller() {\n"
                             "  // lint: allow(ignored-status, no-such-rule)\n"
                             "  Push(1);\n"
                             "}\n");
  EXPECT_EQ(CountRule(findings, "ignored-status"), 0);
  ASSERT_EQ(CountRule(findings, "allow-unknown"), 1);
  EXPECT_NE(findings[0].message.find("'no-such-rule'"), std::string::npos);
}

TEST(LintSuppressionAuditTest, UnusedMarkerIsFlagged) {
  // The call is discarded through a (void) cast, which the rule already
  // accepts, so the marker silences nothing.
  const auto findings = Lint("src/x/use.cc",
                             "Status Push(int v);\n"
                             "void Caller() {\n"
                             "  // lint: allow(ignored-status) best effort\n"
                             "  (void)Push(1);\n"
                             "}\n");
  ASSERT_EQ(findings.size(), 1u);
  EXPECT_EQ(findings[0].rule, "allow-unused");
  EXPECT_EQ(findings[0].line, 3);
  EXPECT_NE(findings[0].message.find("'ignored-status'"), std::string::npos);
}

TEST(LintSuppressionAuditTest, MixedListFlagsOnlyTheUnusedRule) {
  const auto findings =
      Lint("src/x/use.cc",
           "Status Push(int v);\n"
           "void Caller(Sem& sem) {\n"
           "  // lint: allow(ignored-status, acquire-release) protocol\n"
           "  Push(1);\n"
           "}\n");
  ASSERT_EQ(findings.size(), 1u);
  EXPECT_EQ(findings[0].rule, "allow-unused");
  EXPECT_NE(findings[0].message.find("'acquire-release'"), std::string::npos);
}

TEST(LintFormatTest, FindingsAreMachineReadable) {
  const auto findings = Lint("src/x/thing.h", "int x;\n");
  ASSERT_EQ(findings.size(), 1u);
  EXPECT_EQ(Format(findings[0]).rfind("src/x/thing.h:1: pragma-once:", 0), 0u);
}

}  // namespace
}  // namespace memfs::analyze
