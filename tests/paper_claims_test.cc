// Regression guards for the paper's headline claims. Each claim is a list of
// relations over rows of the paper-figure table (bench::PaperClaims() in
// bench/paper_cells.cc, with the paper section it comes from), so the
// claims measure the very cells BENCH_paper.json records. EXPERIMENTS.md
// narrates these shapes; this suite makes them break the build if a future
// change loses one.
#include <gtest/gtest.h>

#include <map>
#include <string>

#include "paper_cells.h"

namespace memfs {
namespace {

using Op = bench::Relation::Op;

// The recorded value a Ref names; each distinct cell runs once per binary.
double Measure(const bench::Ref& ref) {
  static std::map<std::string, bench::CellResult> measured;
  if (ref.figure.empty()) return 1.0;
  const bench::Row* row = bench::FindRow(ref.figure, ref.label);
  if (row == nullptr) {
    ADD_FAILURE() << "no row " << ref.figure << " / " << ref.label;
    return 0.0;
  }
  const std::string id = bench::CellId(row->cell);
  auto it = measured.find(id);
  if (it == measured.end()) {
    it = measured.emplace(id, bench::RunCell(row->cell)).first;
  }
  EXPECT_TRUE(it->second.status.ok()) << id << ": " << it->second.status;
  const auto value = it->second.metrics.find(std::string(ref.metric));
  if (value == it->second.metrics.end()) {
    ADD_FAILURE() << id << " has no " << ref.metric;
    return 0.0;
  }
  return value->second;
}

void ExpectClaim(std::string_view name) {
  for (const bench::Claim& claim : bench::PaperClaims()) {
    if (claim.name != name) continue;
    for (const bench::Relation& r : claim.relations) {
      const double lhs = Measure(r.lhs);
      const double rhs = r.factor * Measure(r.rhs);
      const std::string what = std::string(r.lhs.figure) + " " +
                               std::string(r.lhs.label) + " " +
                               std::string(r.lhs.metric) + " vs " +
                               std::to_string(r.factor) + " x " +
                               std::string(r.rhs.figure) + " " +
                               std::string(r.rhs.label) + " " +
                               std::string(r.rhs.metric);
      switch (r.op) {
        case Op::kGreater: EXPECT_GT(lhs, rhs) << what; break;
        case Op::kLess: EXPECT_LT(lhs, rhs) << what; break;
        case Op::kNear: EXPECT_NEAR(lhs, rhs, r.tolerance * rhs) << what; break;
      }
    }
    return;
  }
  ADD_FAILURE() << "no claim " << name;
}

TEST(PaperClaims, MemFsWinsWriteAndN1AtAllSizes) {
  ExpectClaim("MemFsWinsWriteAndN1AtAllSizes");
}

TEST(PaperClaims, AmfsWinsLargeFileLocalReadsOnly) {
  ExpectClaim("AmfsWinsLargeFileLocalReadsOnly");
}

TEST(PaperClaims, RemoteReadPenaltyRatios) {
  ExpectClaim("RemoteReadPenaltyRatios");
}

TEST(PaperClaims, AmfsN1ThroughputEqualsOneToOne) {
  ExpectClaim("AmfsN1ThroughputEqualsOneToOne");
}

TEST(PaperClaims, MetadataRelationships) {
  ExpectClaim("MetadataRelationships");
}

TEST(PaperClaims, MontageFasterAndBalanced) {
  ExpectClaim("MontageFasterAndBalanced");
}

TEST(PaperClaims, FuseMountpointCeiling) {
  ExpectClaim("FuseMountpointCeiling");
}

TEST(PaperClaims, SystemBandwidthTwiceApplication) {
  ExpectClaim("SystemBandwidthTwiceApplication");
}

}  // namespace
}  // namespace memfs
