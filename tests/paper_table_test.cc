// The paper-figure table (bench/paper_cells.h) checked without running it,
// the ledger's JSON round trip, and how a cell whose run fails renders.
#include <gtest/gtest.h>

#include <algorithm>
#include <set>
#include <sstream>
#include <string>

#include "common/table.h"
#include "common/units.h"
#include "paper_cells.h"

namespace memfs {
namespace {

bool Records(const bench::Figure& figure, std::string_view metric) {
  return std::find(figure.metrics.begin(), figure.metrics.end(), metric) !=
         figure.metrics.end();
}

TEST(PaperTable, EveryFigureHasCellsAndKnownMetrics) {
  std::set<std::string> ids;
  for (const bench::Figure& figure : bench::PaperFigures()) {
    EXPECT_TRUE(ids.insert(figure.id).second) << "duplicate " << figure.id;
    EXPECT_FALSE(figure.rows.empty()) << figure.id;
    EXPECT_FALSE(figure.metrics.empty()) << figure.id;
    for (const std::string& metric : figure.metrics) {
      EXPECT_FALSE(bench::Metric(metric).header.empty())
          << figure.id << " records unknown metric " << metric;
    }
    std::set<std::string> labels;
    for (const bench::Row& row : figure.rows) {
      EXPECT_TRUE(labels.insert(row.label).second)
          << figure.id << " repeats label " << row.label;
      for (const auto& [metric, value] : row.paper) {
        EXPECT_TRUE(Records(figure, metric))
            << figure.id << " / " << row.label << " has a paper " << metric
            << " it does not record";
      }
    }
  }
}

TEST(PaperTable, EveryClaimNamesRecordedCells) {
  EXPECT_EQ(bench::PaperClaims().size(), 8u);
  for (const bench::Claim& claim : bench::PaperClaims()) {
    EXPECT_FALSE(claim.relations.empty()) << claim.name;
    for (const bench::Relation& relation : claim.relations) {
      for (const bench::Ref& ref : {relation.lhs, relation.rhs}) {
        if (ref.figure.empty()) continue;  // the constant 1
        const bench::Row* row = bench::FindRow(ref.figure, ref.label);
        EXPECT_NE(row, nullptr)
            << claim.name << ": no row " << ref.figure << " / " << ref.label;
        const bench::Figure* figure = nullptr;
        for (const bench::Figure& f : bench::PaperFigures()) {
          if (f.id == ref.figure) figure = &f;
        }
        ASSERT_NE(figure, nullptr) << claim.name;
        EXPECT_TRUE(Records(*figure, ref.metric))
            << claim.name << ": " << ref.figure << " does not record "
            << ref.metric;
      }
    }
  }
}

// Figures share a cell by sharing its params; the id must tell apart
// exactly the params that differ.
TEST(PaperTable, CellIdsAreOneToOneWithParams) {
  std::vector<bench::CellParams> cells;
  for (const bench::Figure& figure : bench::PaperFigures()) {
    for (const bench::Row& row : figure.rows) {
      if (std::find(cells.begin(), cells.end(), row.cell) == cells.end()) {
        cells.push_back(row.cell);
      }
    }
  }
  std::set<std::string> ids;
  for (const bench::CellParams& cell : cells) {
    EXPECT_TRUE(ids.insert(bench::CellId(cell)).second)
        << "two different cells share the id " << bench::CellId(cell);
  }
  // Shared configurations are shared cells, so a driver runs them once.
  const auto id = [](std::string_view figure, std::string_view label) {
    const bench::Row* row = bench::FindRow(figure, label);
    return row != nullptr ? bench::CellId(row->cell) : "no row";
  };
  EXPECT_EQ(id("fig05b", "8 nodes AMFS"), id("fig04b", "8 nodes AMFS"));
  EXPECT_EQ(id("table3", "64 nodes"), id("fig08a", "64 nodes AMFS_4"));
  EXPECT_EQ(id("fig07a", "512 cores MemFS"),
            id("fig08a", "64 nodes MemFS_8"));
  EXPECT_EQ(id("fig13", "1024 cores"), id("fig15", "32 nodes"));
  EXPECT_EQ(id("abl_distribution_envelope", "modulo"),
            id("fig04b", "8 nodes MemFS"));
  EXPECT_EQ(id("abl_replication", "1 replicas"),
            id("abl_network_model", "FairShare"));
  EXPECT_EQ(id("abl_bisection", "1:1 MemFS"), id("abl_substrate", "MemFS"));
}

TEST(PaperTable, LedgerRoundTripsThroughJson) {
  const bench::Figure& figure = bench::PaperFigures().front();
  bench::CellResult result;
  result.metrics = {{"write_MBps_node", 615.123456789012},
                    {"read11_MBps_node", 1e-7}};
  bench::Ledger ledger;
  bench::AddRecords(ledger, figure, figure.rows.front(), result);
  ASSERT_EQ(ledger.size(), 2u);
  std::stringstream json;
  bench::WriteLedger(json, ledger);
  const auto loaded = bench::LoadLedger(json);
  ASSERT_TRUE(loaded.has_value());
  EXPECT_EQ(*loaded, ledger);
  EXPECT_TRUE(bench::CheckLedger(ledger, *loaded).empty());

  bench::Ledger drifted = ledger;
  drifted.begin()->second.value *= 1.02;
  EXPECT_EQ(bench::CheckLedger(drifted, ledger).size(), 1u);
}

// Counts are exact: a run that lists one entry of a million fewer than the
// ledger is a different run, though it is well inside a 1% tolerance.
TEST(PaperTable, CheckLedgerComparesCountsExactly) {
  const bench::Row* row = bench::FindRow("abl_metadata_bigdir",
                                         "1000000 entries");
  ASSERT_NE(row, nullptr);
  const bench::Figure figure{"counts", "", {"entries_listed"}, {*row}};
  bench::CellResult result;
  result.metrics = {{"entries_listed", 1000000}};
  bench::Ledger baseline;
  bench::AddRecords(baseline, figure, *row, result);
  result.metrics["entries_listed"] = 999999;
  bench::Ledger run;
  bench::AddRecords(run, figure, *row, result);
  ASSERT_EQ(run.size(), 1u);
  EXPECT_EQ(bench::CheckLedger(run, baseline).size(), 1u);
  EXPECT_TRUE(bench::CheckLedger(baseline, baseline).empty());

  for (const std::string_view count :
       {"files", "writes_ok", "reads_intact", "readable", "entries_listed",
        "pages", "join_keys_moved", "drain_keys_moved", "failed_chunks",
        "retries", "fault_events"}) {
    EXPECT_EQ(bench::Metric(count).tolerance, 0.0) << count;
  }
}

// A record the ledger has for a figure the run measured, but the run no
// longer produces, is a problem; records of figures the run did not select
// are not.
TEST(PaperTable, CheckLedgerReportsRecordsTheRunDropped) {
  const bench::Figure& figure = bench::PaperFigures().front();
  bench::CellResult result;
  result.metrics = {{"write_MBps_node", 600}, {"read11_MBps_node", 700}};
  bench::Ledger run;
  bench::AddRecords(run, figure, figure.rows.front(), result);

  bench::Ledger baseline = run;
  baseline[{figure.id, "envelope/dropped", "write_MBps_node"}] = {};
  baseline[{"unselected", "envelope/other", "write_MBps"}] = {};
  const auto problems = bench::CheckLedger(run, baseline);
  ASSERT_EQ(problems.size(), 1u);
  EXPECT_NE(problems.front().find("envelope/dropped"), std::string::npos)
      << problems.front();
}

// A block with no end marker, or naming no figure, would swallow or keep
// text the doc did not mean to; both are errors, not renderings.
TEST(PaperTable, MalformedDocBlocksAreErrors) {
  const bench::Ledger ledger;
  const std::string good =
      "intro\n<!-- paper_figures table2 -->\nold\n<!-- /paper_figures -->\n"
      "## next section\n";
  const auto rendered = bench::RenderMarkdownBlocks(good, ledger);
  ASSERT_TRUE(rendered.ok()) << rendered.status();
  EXPECT_EQ(*rendered, good);

  for (const std::string doc :
       {"<!-- paper_figures table2 -->\nold\n## next section\n",
        "<!-- paper_figures table2 -->\n<!-- paper_figures fig06 -->\n"
        "<!-- /paper_figures -->\n",
        "<!-- paper_figures fig99 -->\n<!-- /paper_figures -->\n"}) {
    EXPECT_FALSE(bench::RenderMarkdownBlocks(doc, ledger).ok()) << doc;
  }
}

// Every figure of the table has exactly one generated block in the doc.
TEST(PaperTable, CheckMarkdownBlocksWantsOneBlockPerFigure) {
  const auto block = [](const std::string& id) {
    return "<!-- paper_figures " + id + " -->\n<!-- /paper_figures -->\n";
  };
  const auto& figures = bench::PaperFigures();
  std::string doc;
  for (const bench::Figure& figure : figures) doc += block(figure.id);
  EXPECT_TRUE(bench::CheckMarkdownBlocks(doc).empty());

  // The first figure twice, the last not at all.
  doc = block(figures.front().id);
  for (std::size_t i = 0; i + 1 < figures.size(); ++i) {
    doc += block(figures[i].id);
  }
  const auto problems = bench::CheckMarkdownBlocks(doc);
  ASSERT_EQ(problems.size(), 2u);
  EXPECT_EQ(problems.front(), figures.front().id + ": 2 doc blocks, want 1");
  EXPECT_EQ(problems.back(), figures.back().id + ": 0 doc blocks, want 1");
}

// A failed run records its status, and every rendering shows that status
// instead of the numbers the run left behind. The per-node budget is
// IntegrationTest.AmfsRunsOutOfMemoryOnLargeWorkflow's.
TEST(PaperTable, FailedCellRendersStatusNotNumbers) {
  const bench::Row* montage12 = bench::FindRow("fig07b", "512 cores");
  ASSERT_NE(montage12, nullptr);
  bench::CellParams cell = montage12->cell;
  cell.fs = workloads::FsKind::kAmfs;
  cell.nodes = 4;
  cell.procs = 4;
  cell.node_memory = units::MiB(48);
  const bench::CellResult result = bench::RunCell(cell);
  ASSERT_EQ(result.status.code(), ErrorCode::kNoSpace) << result.status;

  const bench::Figure figure{"failed",
                             "Montage 12 on AMFS out of memory",
                             {"makespan_s", "mem_total_MB"},
                             {{"AMFS 4 nodes", cell, {{"makespan_s", 1}}}}};
  bench::Ledger ledger;
  bench::AddRecords(ledger, figure, figure.rows.front(), result);
  ASSERT_EQ(ledger.size(), 2u);
  std::stringstream json;
  bench::WriteLedger(json, ledger);
  EXPECT_NE(json.str().find("\"value\": null"), std::string::npos);
  const auto loaded = bench::LoadLedger(json);
  ASSERT_TRUE(loaded.has_value());
  for (const auto& [key, record] : *loaded) {
    EXPECT_EQ(record.status.rfind("NO_SPACE", 0), 0u) << record.status;
  }

  const std::string makespan = Table::Num(result.metrics.at("makespan_s"), 2);
  const std::string memory = Table::Num(result.metrics.at("mem_total_MB"), 1);
  for (const auto format : {bench::Format::kText, bench::Format::kCsv,
                            bench::Format::kMarkdown}) {
    std::ostringstream out;
    bench::RenderFigure(out, figure, *loaded, format);
    EXPECT_NE(out.str().find("NO_SPACE"), std::string::npos) << out.str();
    EXPECT_EQ(out.str().find(makespan), std::string::npos) << out.str();
    EXPECT_EQ(out.str().find(memory), std::string::npos) << out.str();
  }
}

// A namespace cell whose ops fail records the first failure's status, so
// --check reports it against a ledger of healthy runs. The servers here
// have no room for a single metadata record.
TEST(PaperTable, FailedSweepOpFailsTheCell) {
  const bench::Row* row = bench::FindRow("abl_metadata_sweep",
                                         "hot-dir sharded");
  ASSERT_NE(row, nullptr);
  bench::CellParams cell = row->cell;
  cell.files = 4;
  cell.node_memory = 1;
  const bench::CellResult result = bench::RunCell(cell);
  ASSERT_EQ(result.status.code(), ErrorCode::kNoSpace) << result.status;

  const bench::Figure figure{"failed", "", {"create_ops"}, {{"", cell, {}}}};
  bench::Ledger run;
  bench::AddRecords(run, figure, figure.rows.front(), result);
  bench::Ledger healthy = run;
  healthy.begin()->second = bench::Record{};
  const auto problems = bench::CheckLedger(run, healthy);
  ASSERT_EQ(problems.size(), 1u);
  EXPECT_NE(problems.front().find("status NO_SPACE"), std::string::npos)
      << problems.front();
}

}  // namespace
}  // namespace memfs
