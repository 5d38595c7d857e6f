// Beyond Fig. 6 — an mdtest-style namespace sweep for the token-range-sharded
// metadata service. (Fig. 6's own create/open rows live in the paper-figure
// table, bench/paper_cells.cc, and are run by paper_figures.)
//
// Section 1: a create/stat/readdir/unlink sweep over the two MemFS metadata
// arms (append_log — the paper's one-log-per-directory protocol — vs the
// token-range-sharded dentry/inode service) on a single hot directory and on
// a many-directory tree. For the sharded arm the per-shard dentry gauges
// give the hot-directory balance skew (max/mean across token ranges), and
// the listing column reports the largest single listing RPC — pages for the
// sharded arm vs the whole directory log in one GET for append_log.
//
// Section 2 bulk-loads a million-entry directory (sharded arm only; the
// append-log arm would ship the whole log in one response) and pages through
// it, reporting enumeration rate and the worst single-response size against
// the one-GET equivalent.
//
// Machine-readable results go to BENCH_metadata.json (--json=PATH).
#include <algorithm>
#include <cstdint>
#include <fstream>
#include <iostream>
#include <string>
#include <vector>

#include "common/flags.h"
#include "common/metrics.h"
#include "common/table.h"
#include "common/units.h"
#include "sim/task.h"
#include "workloads/testbed.h"

using namespace memfs;  // NOLINT

namespace {

constexpr std::uint32_t kSweepNodes = 8;    // mdtest sweep cluster size
constexpr std::uint32_t kSweepFiles = 4096; // live-traffic entries per cell
constexpr std::uint32_t kManyDirs = 64;     // many-directory tree width
constexpr std::uint64_t kBigDirEntries = 1000000;  // bulk-loaded arm
constexpr std::uint32_t kBigDirShards = 64;
constexpr std::uint32_t kPageLimit = 256;

// Serialized size of one listing entry / one listing response, mirroring the
// simulator's wire accounting (fixed per-entry attr overhead + the name).
std::uint64_t EntryWireBytes(const fs::FileInfo& info) {
  return info.name.size() + 16;
}

struct MdtestCell {
  double create_ops = 0;
  double stat_ops = 0;
  double readdir_entries = 0;  // entries enumerated per second
  double unlink_ops = 0;
  std::uint64_t readdir_max_rpc = 0;  // largest single listing response
  double dentry_skew = 0;             // sharded arm only; 0 = not measured
  std::uint32_t failures = 0;         // any op that did not come back OK
};

// --- mdtest-style per-process loops (ops sequential per process, all
// processes in parallel — one process per node, like the paper's runs) -----

sim::Task RunCreateProc(fs::Vfs& vfs, const std::vector<std::string>& paths,
                        std::uint32_t proc, std::uint32_t& ok) {
  fs::VfsContext ctx{proc, 0};
  for (std::size_t i = proc; i < paths.size(); i += kSweepNodes) {
    auto handle = co_await vfs.Create(ctx, paths[i]);
    if (!handle.ok()) continue;
    const Status closed = co_await vfs.Close(ctx, handle.value());
    if (closed.ok()) ++ok;
  }
}

sim::Task RunStatProc(fs::Vfs& vfs, const std::vector<std::string>& paths,
                      std::uint32_t proc, std::uint32_t& ok) {
  fs::VfsContext ctx{proc, 0};
  for (std::size_t i = proc; i < paths.size(); i += kSweepNodes) {
    auto info = co_await vfs.Stat(ctx, paths[i]);
    if (info.ok()) ++ok;
  }
}

sim::Task RunUnlinkProc(fs::Vfs& vfs, const std::vector<std::string>& paths,
                        std::uint32_t proc, std::uint32_t& ok) {
  fs::VfsContext ctx{proc, 0};
  for (std::size_t i = proc; i < paths.size(); i += kSweepNodes) {
    const Status gone = co_await vfs.Unlink(ctx, paths[i]);
    if (gone.ok()) ++ok;
  }
}

// Enumerates one directory and records entries seen plus the largest single
// listing response. The sharded arm walks bounded pages; append_log ships
// the whole directory log in one GET, so its "largest response" is the
// serialized full listing.
sim::Task RunListDir(fs::Vfs& vfs, std::string dir, std::uint32_t node,
                     bool paged, std::uint64_t& entries,
                     std::uint64_t& max_rpc) {
  fs::VfsContext ctx{node, 0};
  if (paged) {
    fs::DirCursor cursor;
    while (true) {
      auto page = co_await vfs.ReadDirPage(ctx, dir, cursor, kPageLimit);
      if (!page.ok()) co_return;
      std::uint64_t rpc = 16;
      for (const fs::FileInfo& info : page->entries) {
        rpc += EntryWireBytes(info);
      }
      max_rpc = std::max(max_rpc, rpc);
      entries += page->entries.size();
      if (!page->more) break;
      cursor = page->next;
    }
    co_return;
  }
  auto listing = co_await vfs.ReadDir(ctx, dir);
  if (!listing.ok()) co_return;
  std::uint64_t rpc = 16;
  for (const fs::FileInfo& info : listing.value()) {
    rpc += EntryWireBytes(info);
  }
  max_rpc = std::max(max_rpc, rpc);
  entries += listing->size();
}

sim::Task RunMkdirs(fs::Vfs& vfs, const std::vector<std::string>& dirs,
                    std::uint32_t& ok) {
  fs::VfsContext ctx{0, 0};
  for (const std::string& dir : dirs) {
    const Status made = co_await vfs.Mkdir(ctx, dir);
    if (made.ok()) ++ok;
  }
}

// Hot-directory balance across token ranges: max/mean of the per-shard
// "meta.dentries/<shard>" gauges the metadata client maintains.
double DentrySkew(const MetricsRegistry& metrics, std::uint32_t shards) {
  std::int64_t max = 0;
  std::int64_t sum = 0;
  for (std::uint32_t s = 0; s < shards; ++s) {
    const std::int64_t v = metrics.GaugeValue(InstanceGaugeName("meta.dentries", s));
    sum += v;
    max = std::max(max, v);
  }
  if (sum <= 0) return 0.0;
  const double mean = static_cast<double>(sum) / static_cast<double>(shards);
  return static_cast<double>(max) / mean;
}

MdtestCell RunMdtestCell(bool sharded, bool hot) {
  MetricsRegistry metrics;
  workloads::TestbedConfig config;
  config.nodes = kSweepNodes;
  config.metrics = &metrics;
  if (sharded) config.memfs.metadata = meta::MetadataMode::kSharded;
  workloads::Testbed bed(workloads::FsKind::kMemFs, config);
  sim::Simulation& sim = bed.simulation();
  fs::Vfs& vfs = bed.vfs();

  std::vector<std::string> dirs;
  if (hot) {
    dirs.push_back("/hot");
  } else {
    for (std::uint32_t d = 0; d < kManyDirs; ++d) {
      dirs.push_back("/d" + std::to_string(d));
    }
  }
  std::vector<std::string> paths;
  paths.reserve(kSweepFiles);
  for (std::uint32_t i = 0; i < kSweepFiles; ++i) {
    paths.push_back(dirs[i % dirs.size()] + "/f" + std::to_string(i));
  }

  MdtestCell cell;
  std::uint32_t mkdir_ok = 0;
  // fire-and-forget sim::Task, not a Status
  RunMkdirs(vfs, dirs, mkdir_ok);
  sim.Run();
  cell.failures += static_cast<std::uint32_t>(dirs.size()) - mkdir_ok;

  const auto phase = [&sim](auto&& fire) {
    const sim::SimTime start = sim.now();
    fire();
    sim.Run();
    return units::ToSeconds(sim.now() - start);
  };

  std::vector<std::uint32_t> ok(kSweepNodes, 0);
  double secs = phase([&] {
    for (std::uint32_t p = 0; p < kSweepNodes; ++p) {
      // fire-and-forget sim::Task, not a Status
      RunCreateProc(vfs, paths, p, ok[p]);
    }
  });
  std::uint32_t done = 0;
  for (std::uint32_t n : ok) done += n;
  cell.failures += kSweepFiles - done;
  cell.create_ops = secs > 0 ? static_cast<double>(done) / secs : 0;
  if (sharded) {
    cell.dentry_skew = DentrySkew(metrics, bed.config().memfs.meta.dir_shards);
  }

  std::fill(ok.begin(), ok.end(), 0);
  secs = phase([&] {
    for (std::uint32_t p = 0; p < kSweepNodes; ++p) {
      // fire-and-forget sim::Task, not a Status
      RunStatProc(vfs, paths, p, ok[p]);
    }
  });
  done = 0;
  for (std::uint32_t n : ok) done += n;
  cell.failures += kSweepFiles - done;
  cell.stat_ops = secs > 0 ? static_cast<double>(done) / secs : 0;

  std::uint64_t listed = 0;
  secs = phase([&] {
    for (std::size_t d = 0; d < dirs.size(); ++d) {
      // fire-and-forget sim::Task, not a Status
      RunListDir(vfs, dirs[d], static_cast<std::uint32_t>(d) % kSweepNodes,
                 sharded, listed, cell.readdir_max_rpc);
    }
  });
  cell.failures += static_cast<std::uint32_t>(
      listed < kSweepFiles ? kSweepFiles - listed : 0);
  cell.readdir_entries = secs > 0 ? static_cast<double>(listed) / secs : 0;

  std::fill(ok.begin(), ok.end(), 0);
  secs = phase([&] {
    for (std::uint32_t p = 0; p < kSweepNodes; ++p) {
      // fire-and-forget sim::Task, not a Status
      RunUnlinkProc(vfs, paths, p, ok[p]);
    }
  });
  done = 0;
  for (std::uint32_t n : ok) done += n;
  cell.failures += kSweepFiles - done;
  cell.unlink_ops = secs > 0 ? static_cast<double>(done) / secs : 0;
  return cell;
}

struct BigDirResult {
  std::uint64_t listed = 0;
  std::uint64_t pages = 0;
  std::uint64_t max_rpc = 0;
  std::uint64_t one_get_equiv = 0;  // append_log would ship this in one GET
  double entries_per_sec = 0;
  bool stat_ok = false;
};

sim::Task RunBigDirSweep(fs::Vfs& vfs, BigDirResult& out) {
  fs::VfsContext ctx{0, 0};
  fs::DirCursor cursor;
  while (true) {
    auto page = co_await vfs.ReadDirPage(ctx, "/big", cursor, kPageLimit);
    if (!page.ok()) co_return;
    std::uint64_t rpc = 16;
    for (const fs::FileInfo& info : page->entries) {
      rpc += EntryWireBytes(info);
      out.one_get_equiv += EntryWireBytes(info);
    }
    out.max_rpc = std::max(out.max_rpc, rpc);
    out.listed += page->entries.size();
    ++out.pages;
    if (!page->more) break;
    cursor = page->next;
  }
  auto info = co_await vfs.Stat(ctx, "/big/f500000");
  out.stat_ok = info.ok();
}

BigDirResult RunBigDir() {
  workloads::TestbedConfig config;
  config.nodes = kSweepNodes;
  config.memfs.metadata = meta::MetadataMode::kSharded;
  config.memfs.meta.dir_shards = kBigDirShards;
  workloads::Testbed bed(workloads::FsKind::kMemFs, config);
  sim::Simulation& sim = bed.simulation();
  bed.memfs()->BulkLoadDirectory("/big", "f", kBigDirEntries);

  BigDirResult result;
  result.one_get_equiv = 16;  // response header of the hypothetical one GET
  const sim::SimTime start = sim.now();
  // fire-and-forget sim::Task, not a Status
  RunBigDirSweep(bed.vfs(), result);
  sim.Run();
  const double secs = units::ToSeconds(sim.now() - start);
  result.entries_per_sec =
      secs > 0 ? static_cast<double>(result.listed) / secs : 0;
  return result;
}

void WriteCellJson(std::ostream& os, const char* shape, const char* arm,
                   const MdtestCell& cell, bool last) {
  os << "    {\"shape\": \"" << shape << "\", \"metadata\": \"" << arm
     << "\", \"create_ops_per_sec\": " << cell.create_ops
     << ", \"stat_ops_per_sec\": " << cell.stat_ops
     << ", \"readdir_entries_per_sec\": " << cell.readdir_entries
     << ", \"unlink_ops_per_sec\": " << cell.unlink_ops
     << ", \"readdir_max_rpc_bytes\": " << cell.readdir_max_rpc
     << ", \"dentry_skew\": " << cell.dentry_skew
     << ", \"failures\": " << cell.failures << "}" << (last ? "" : ",")
     << "\n";
}

}  // namespace

int main(int argc, char** argv) {
  FlagParser flags(argc, argv);
  const bool csv = flags.GetBool("csv");
  const std::string json_path = flags.GetString("json", "BENCH_metadata.json");

  std::cout << "# mdtest-style namespace sweep: " << kSweepFiles
            << " entries, " << kSweepNodes
            << " nodes, hot-dir (1 directory) vs many-dir (" << kManyDirs
            << " directories), MemFS append_log vs sharded metadata\n";
  const MdtestCell hot_log = RunMdtestCell(/*sharded=*/false, /*hot=*/true);
  const MdtestCell hot_shard = RunMdtestCell(/*sharded=*/true, /*hot=*/true);
  const MdtestCell many_log = RunMdtestCell(/*sharded=*/false, /*hot=*/false);
  const MdtestCell many_shard = RunMdtestCell(/*sharded=*/true, /*hot=*/false);

  Table sweep({"shape", "metadata", "create op/s", "stat op/s",
               "readdir ent/s", "unlink op/s", "max list RPC (B)",
               "dentry skew"});
  const auto add = [&sweep](const char* shape, const char* arm,
                            const MdtestCell& cell) {
    sweep.AddRow({shape, arm, Table::Num(cell.create_ops, 0),
                  Table::Num(cell.stat_ops, 0),
                  Table::Num(cell.readdir_entries, 0),
                  Table::Num(cell.unlink_ops, 0),
                  Table::Int(cell.readdir_max_rpc),
                  cell.dentry_skew > 0 ? Table::Num(cell.dentry_skew, 3)
                                       : "-"});
  };
  add("hot-dir", "append_log", hot_log);
  add("hot-dir", "sharded", hot_shard);
  add("many-dir", "append_log", many_log);
  add("many-dir", "sharded", many_shard);
  sweep.Print(std::cout, csv);

  // Any failed operation, a failed mid-file stat or an unwritable JSON file
  // fails the run (exit 1, reason on stderr); the tables still print.
  int exit_code = 0;
  const auto fail = [&exit_code](const std::string& why) {
    std::cerr << "fig06_metadata: " << why << "\n";
    exit_code = 1;
  };
  const auto check = [&fail](const char* shape, const char* arm,
                             const MdtestCell& cell) {
    if (cell.failures == 0) return;
    fail(std::string(shape) + "/" + arm + ": " +
         std::to_string(cell.failures) + " failed operation(s)");
  };
  check("hot-dir", "append_log", hot_log);
  check("hot-dir", "sharded", hot_shard);
  check("many-dir", "append_log", many_log);
  check("many-dir", "sharded", many_shard);
  std::cout << "\n# Bulk-loaded big directory (sharded, " << kBigDirShards
            << " shards): " << kBigDirEntries << " entries, paged at "
            << kPageLimit << " entries/response\n";
  const BigDirResult big = RunBigDir();
  Table bigt({"entries listed", "pages", "max RPC (B)", "one-GET equiv (B)",
              "entries/s", "stat mid-file"});
  bigt.AddRow({Table::Int(big.listed), Table::Int(big.pages),
               Table::Int(big.max_rpc), Table::Int(big.one_get_equiv),
               Table::Num(big.entries_per_sec, 0),
               big.stat_ok ? "ok" : "FAIL"});
  bigt.Print(std::cout, csv);
  if (!big.stat_ok) fail("stat of a mid-directory file in /big failed");

  std::ofstream json(json_path, std::ios::binary);
  if (json) {
    json << "{\n  \"bench\": \"fig06_metadata\",\n"
         << "  \"sweep_nodes\": " << kSweepNodes
         << ", \"sweep_files\": " << kSweepFiles
         << ", \"many_dirs\": " << kManyDirs << ",\n  \"sweep\": [\n";
    WriteCellJson(json, "hot-dir", "append_log", hot_log, false);
    WriteCellJson(json, "hot-dir", "sharded", hot_shard, false);
    WriteCellJson(json, "many-dir", "append_log", many_log, false);
    WriteCellJson(json, "many-dir", "sharded", many_shard, true);
    json << "  ],\n  \"big_dir\": {\"entries\": " << kBigDirEntries
         << ", \"dir_shards\": " << kBigDirShards
         << ", \"page_limit\": " << kPageLimit
         << ", \"entries_listed\": " << big.listed
         << ", \"pages\": " << big.pages
         << ", \"max_rpc_bytes\": " << big.max_rpc
         << ", \"one_get_equivalent_bytes\": " << big.one_get_equiv
         << ", \"entries_per_sec\": " << big.entries_per_sec
         << ", \"stat_ok\": " << (big.stat_ok ? "true" : "false")
         << "}\n}\n";
    std::cout << "\nresults written to " << json_path << "\n";
  } else {
    fail("could not open " + json_path + " for writing");
  }
  return exit_code;
}
