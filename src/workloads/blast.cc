#include "workloads/blast.h"

#include <algorithm>
#include <array>
#include <string>
#include <vector>

#include "common/units.h"

namespace memfs::workloads {

namespace {

std::string Zero5(std::uint32_t n) {
  std::string s = std::to_string(n);
  return std::string(s.size() < 5 ? 5 - s.size() : 0, '0') + s;
}

sim::SimTime CpuTime(double seconds, std::uint64_t size_scale) {
  const double scaled = seconds / static_cast<double>(size_scale);
  return static_cast<sim::SimTime>(scaled *
                                   static_cast<double>(units::kNanosPerSec));
}

}  // namespace

mtc::Workflow BuildBlast(const BlastParams& params) {
  mtc::Workflow wf;
  wf.name = "blast-nt-" + std::to_string(params.fragments);

  const std::uint32_t task_scale = std::max(params.task_scale, 1u);
  const std::uint64_t scale = std::max<std::uint64_t>(params.size_scale, 1);
  const std::uint32_t fragments = std::max(params.fragments / task_scale, 2u);
  const std::uint32_t queries = fragments * params.queries_per_fragment;
  const std::uint32_t batches =
      std::max(std::min(params.query_batches, queries), 1u);
  const std::uint32_t merges = std::max(std::min(params.merges, queries), 1u);

  // Fragment size follows the paper: the same database split into more
  // fragments yields proportionally smaller files (Table 2: 10-120 MB on
  // DAS4, 5-60 MB on EC2).
  const std::uint64_t fragment_size =
      std::max<std::uint64_t>(params.database_bytes / params.fragments / scale,
                              1);
  const std::uint64_t query_size = units::MiB(4) / scale + 1;
  // A blastall hit list scales with the fragment it searched, so the total
  // result volume is split-invariant — the paper's observation that the
  // 512- and 1024-fragment runs generate comparable runtime data.
  const std::uint64_t result_size =
      std::max<std::uint64_t>(fragment_size / 14, 1);

  const std::string base = "/blast";
  wf.directories = {base,           base + "/raw",    base + "/db",
                    base + "/query", base + "/result", base + "/merged"};

  auto raw_path = [&](std::uint32_t i) {
    return base + "/raw/frag_" + Zero5(i) + ".fa";
  };
  auto db_path = [&](std::uint32_t i) {
    return base + "/db/frag_" + Zero5(i) + ".db";
  };
  auto query_path = [&](std::uint32_t i) {
    return base + "/query/batch_" + Zero5(i) + ".fa";
  };
  auto result_path = [&](std::uint32_t i) {
    return base + "/result/out_" + Zero5(i) + ".xml";
  };

  // Each loop adds its files in index order, so file i of a stage is the
  // stage's first id plus i.
  using mtc::FileId;

  // stage_in: raw fragments and query batches enter the runtime FS.
  const auto first_raw = static_cast<FileId>(wf.files.size());
  for (std::uint32_t i = 0; i < fragments; ++i) {
    const FileId out = wf.AddFile(raw_path(i), fragment_size);
    wf.AddTask("stage_in-frag-" + Zero5(i), "stage_in", {}, std::array{out});
  }
  const auto first_query = static_cast<FileId>(wf.files.size());
  for (std::uint32_t b = 0; b < batches; ++b) {
    const FileId out = wf.AddFile(query_path(b), query_size);
    wf.AddTask("stage_in-query-" + Zero5(b), "stage_in", {}, std::array{out});
  }

  // formatdb: CPU-bound conversion of each fragment.
  const auto first_db = static_cast<FileId>(wf.files.size());
  for (std::uint32_t i = 0; i < fragments; ++i) {
    const FileId out = wf.AddFile(db_path(i), fragment_size);
    wf.AddTask("formatdb-" + Zero5(i), "formatdb", std::array{first_raw + i},
               std::array{out}, CpuTime(params.formatdb_cpu_s, scale));
  }

  // blastall: query batch + database fragment -> result. The fragment is the
  // first input (the file AMFS Shell schedules for); the query batch is the
  // second (small, read remotely under AMFS).
  const auto first_result = static_cast<FileId>(wf.files.size());
  for (std::uint32_t q = 0; q < queries; ++q) {
    const FileId out = wf.AddFile(result_path(q), result_size);
    wf.AddTask("blastall-" + Zero5(q), "blastall",
               std::array{first_db + q % fragments, first_query + q % batches},
               std::array{out}, CpuTime(params.blastall_cpu_s, scale));
  }

  // merge: each task folds an equal share of results.
  std::vector<FileId> inputs;
  for (std::uint32_t m = 0; m < merges; ++m) {
    inputs.clear();
    for (std::uint32_t q = m; q < queries; q += merges) {
      inputs.push_back(first_result + q);
    }
    const FileId out = wf.AddFile(
        base + "/merged/part_" + Zero5(m) + ".xml",
        std::max<std::uint64_t>(result_size * (queries / merges) / 4, 1));
    wf.AddTask("merge-" + Zero5(m), "merge", inputs, std::array{out},
               CpuTime(params.merge_cpu_s, scale));
  }

  wf.ShrinkToFit();
  return wf;
}

}  // namespace memfs::workloads
