// Ablation — elastic membership: scale-OUT and scale-IN at runtime, with
// live data rebalancing (kv::Membership + kv::Migrator) against the older
// epoch-pinning scheme (MemFs::AddStorageServer ring epochs, no migration).
//
// Trace per arm: write a 24-file corpus, then grow the pool by one server
// while another 24-file wave is in flight, then drain one of the original
// servers under a third wave. For each transition the table reports the
// makespan (BeginJoin/BeginDrain until the handoff commits), the bytes and
// keys the migrator streamed, and the per-server balance skew (max/mean of
// kv memory across live servers) after each phase. A final verify pass
// re-reads every file.
//
// The contrast the table makes: epoch pinning grows instantly but leaves the
// new server empty (skew ~N) and has NO scale-in story — decommissioning a
// server strands every stripe pinned to it (reads trip UNAVAILABLE_PERMANENT)
// — while the migrator pays a bounded, observable makespan to keep placement
// symmetric and every file readable through both transitions.
//
// Machine-readable results are written to BENCH_elastic.json in the working
// directory (override with --json=PATH).
#include <algorithm>
#include <cstdint>
#include <fstream>
#include <iostream>
#include <string>
#include <vector>

#include "common/flags.h"
#include "common/table.h"
#include "common/units.h"
#include "workloads/chaos.h"
#include "workloads/testbed.h"

using namespace memfs;  // NOLINT

namespace {

constexpr std::uint32_t kServers = 8;      // initial storage pool
constexpr std::uint32_t kWaveFiles = 24;   // files per write wave
constexpr std::uint64_t kFileSize = units::MiB(1);
constexpr std::uint32_t kJoinServer = kServers;  // standby node that joins
constexpr std::uint32_t kDrainServer = 2;        // original server that leaves

struct TransitionResult {
  double makespan_ms = 0;       // BeginJoin/Drain -> handoff committed
  std::uint64_t bytes_moved = 0;
  std::uint64_t keys_moved = 0;
  double skew_after = 0;        // max/mean kv memory across live servers
  std::uint32_t writes_ok = 0;  // wave completed during the transition
};

struct ArmResult {
  double skew_corpus = 0;
  TransitionResult scale_out;
  TransitionResult scale_in;
  std::uint32_t reads_intact = 0;
  std::uint32_t reads_permanent = 0;  // UNAVAILABLE_PERMANENT (stranded data)
  std::uint32_t reads_total = 0;
};

double BalanceSkew(const kv::KvCluster& storage,
                   const std::vector<std::uint8_t>& live) {
  std::uint64_t max_used = 0;
  std::uint64_t total = 0;
  std::uint32_t count = 0;
  for (std::uint32_t s = 0; s < storage.server_count(); ++s) {
    if (s < live.size() && live[s] == 0) continue;
    const std::uint64_t used = storage.server(s).memory_used();
    max_used = std::max(max_used, used);
    total += used;
    ++count;
  }
  if (count == 0 || total == 0) return 0;
  return static_cast<double>(max_used) /
         (static_cast<double>(total) / static_cast<double>(count));
}

// Wave `index`: kWaveFiles 1 MiB files "/w<index>_<f>", one per ms.
workloads::Wave MakeWave(int index) {
  return {kWaveFiles, kFileSize, units::Millis(1),
          "/w" + std::to_string(index) + "_",
          1000 * static_cast<std::uint64_t>(index), kServers};
}

// Drives one membership transition to completion; returns its makespan.
double DriveTransitionMs(workloads::Testbed& bed, workloads::Transition kind,
                         std::uint32_t server) {
  workloads::TransitionReport report;
  workloads::RunTransitions(bed.simulation(), *bed.membership(),
                            *bed.migrator(),
                            {{kind, server, units::Millis(4)}}, report);
  bed.simulation().Run();
  return static_cast<double>(report.steps[0].makespan) / 1e6;
}

// One full trace. `migrate` selects the elastic-membership arm; otherwise
// the legacy epoch-pinning arm (grow via ring epoch, "drain" by marking the
// server permanently left — no data moves in either direction).
ArmResult RunArm(bool migrate) {
  workloads::TestbedConfig config;
  config.nodes = kServers;
  config.standby_nodes = 1;
  config.memfs.use_ketama = true;
  config.elastic = migrate;
  workloads::Testbed bed(workloads::FsKind::kMemFs, config);
  sim::Simulation& sim = bed.simulation();

  ArmResult result;
  std::vector<std::uint8_t> live(kServers + 1, 1);
  live[kJoinServer] = 0;  // standby: empty until it joins
  const workloads::Wave waves[3] = {MakeWave(0), MakeWave(1), MakeWave(2)};
  workloads::WaveResult files[3];

  // Phase 0 — corpus.
  workloads::LaunchWave(sim, bed.vfs(), waves[0], files[0]);
  sim.Run();
  result.skew_corpus = BalanceSkew(*bed.storage(), live);

  // Phase 1 — scale-out while wave 1 is in flight.
  workloads::LaunchWave(sim, bed.vfs(), waves[1], files[1]);
  if (migrate) {
    result.scale_out.makespan_ms =
        DriveTransitionMs(bed, workloads::Transition::kJoin, kJoinServer);
    result.scale_out.bytes_moved = bed.migrator()->progress().bytes_moved;
    result.scale_out.keys_moved = bed.migrator()->progress().keys_moved;
  } else {
    (void)bed.memfs()->AddStorageServer(kJoinServer);
    sim.Run();
  }
  live[kJoinServer] = 1;
  result.scale_out.skew_after = BalanceSkew(*bed.storage(), live);
  result.scale_out.writes_ok = files[1].writes_ok();

  // Phase 2 — scale-in while wave 2 is in flight.
  workloads::LaunchWave(sim, bed.vfs(), waves[2], files[2]);
  if (migrate) {
    result.scale_in.makespan_ms =
        DriveTransitionMs(bed, workloads::Transition::kDrain, kDrainServer);
    result.scale_in.bytes_moved =
        bed.migrator()->progress().bytes_moved - result.scale_out.bytes_moved;
    result.scale_in.keys_moved =
        bed.migrator()->progress().keys_moved - result.scale_out.keys_moved;
  } else {
    // Epoch pinning has no migration path: decommissioning strands every
    // stripe pinned to the departed server.
    bed.storage()->SetServerLeft(kDrainServer);
    sim.Run();
  }
  live[kDrainServer] = 0;
  result.scale_in.skew_after = BalanceSkew(*bed.storage(), live);
  result.scale_in.writes_ok = files[2].writes_ok();

  // Verify every file from every wave.
  for (int w = 0; w < 3; ++w) {
    workloads::VerifyWave(bed.vfs(), waves[w], files[w]);
  }
  sim.Run();
  result.reads_total = 3 * kWaveFiles;
  for (const workloads::WaveResult& wave : files) {
    result.reads_intact += wave.Count(workloads::Verdict::kIntact);
    result.reads_permanent +=
        wave.Count(workloads::Verdict::kUnavailablePermanent);
  }
  return result;
}

void WriteTransitionJson(std::ostream& os, const char* name,
                         const TransitionResult& t) {
  os << "    \"" << name << "\": {\"makespan_ms\": " << t.makespan_ms
     << ", \"bytes_moved\": " << t.bytes_moved
     << ", \"keys_moved\": " << t.keys_moved
     << ", \"skew_after\": " << t.skew_after
     << ", \"writes_ok\": " << t.writes_ok
     << ", \"writes_total\": " << kWaveFiles << "}";
}

void WriteArmJson(std::ostream& os, const char* name, const ArmResult& arm,
                  bool last) {
  os << "  \"" << name << "\": {\n"
     << "    \"skew_corpus\": " << arm.skew_corpus << ",\n";
  WriteTransitionJson(os, "scale_out", arm.scale_out);
  os << ",\n";
  WriteTransitionJson(os, "scale_in", arm.scale_in);
  os << ",\n    \"reads_intact\": " << arm.reads_intact
     << ", \"reads_permanent_fail\": " << arm.reads_permanent
     << ", \"reads_total\": " << arm.reads_total << "\n  }" << (last ? "" : ",")
     << "\n";
}

}  // namespace

int main(int argc, char** argv) {
  FlagParser flags(argc, argv);
  const bool csv = flags.GetBool("csv");
  const std::string json_path =
      flags.GetString("json", "BENCH_elastic.json");

  std::cout << "# Ablation: elastic scale-out AND scale-in under live traffic "
               "(8 servers + 1 standby, 3 x 24 x 1 MiB waves, ketama)\n"
            << "# arms: epoch-pin (ring epochs, no movement) vs migrate "
               "(membership + live rebalancing)\n";

  const ArmResult pin = RunArm(/*migrate=*/false);
  const ArmResult mig = RunArm(/*migrate=*/true);

  Table table({"arm", "phase", "makespan (ms)", "MiB moved", "keys moved",
               "skew after", "wave writes ok"});
  const auto add = [&table](const char* arm, const char* phase,
                            const TransitionResult& t) {
    table.AddRow({arm, phase, Table::Num(t.makespan_ms, 2),
                  Table::Num(static_cast<double>(t.bytes_moved) /
                                 static_cast<double>(units::MiB(1)),
                             1),
                  Table::Int(t.keys_moved), Table::Num(t.skew_after, 3),
                  Table::Int(t.writes_ok) + "/" + Table::Int(kWaveFiles)});
  };
  add("epoch-pin", "scale-out", pin.scale_out);
  add("epoch-pin", "scale-in", pin.scale_in);
  add("migrate", "scale-out", mig.scale_out);
  add("migrate", "scale-in", mig.scale_in);
  table.Print(std::cout, csv);

  Table verify({"arm", "reads intact", "permanent fails", "corpus skew"});
  verify.AddRow({"epoch-pin",
                 Table::Int(pin.reads_intact) + "/" +
                     Table::Int(pin.reads_total),
                 Table::Int(pin.reads_permanent),
                 Table::Num(pin.skew_corpus, 3)});
  verify.AddRow({"migrate",
                 Table::Int(mig.reads_intact) + "/" +
                     Table::Int(mig.reads_total),
                 Table::Int(mig.reads_permanent),
                 Table::Num(mig.skew_corpus, 3)});
  std::cout << "\n# End-of-trace verification (every file, every wave)\n";
  verify.Print(std::cout, csv);

  std::ofstream json(json_path, std::ios::binary);
  if (json) {
    json << "{\n  \"bench\": \"ablation_elastic\",\n"
         << "  \"servers\": " << kServers << ", \"standby\": 1,\n"
         << "  \"waves\": 3, \"files_per_wave\": " << kWaveFiles
         << ", \"file_bytes\": " << kFileSize << ",\n";
    WriteArmJson(json, "epoch_pin", pin, /*last=*/false);
    WriteArmJson(json, "migrate", mig, /*last=*/true);
    json << "}\n";
    std::cout << "\nresults written to " << json_path << "\n";
  } else {
    std::cerr << "cannot open " << json_path << " for writing\n";
  }

  std::cout << "\nReading: epoch pinning grows for free but the new server "
               "only absorbs NEW writes, and decommissioning strands every "
               "stripe pinned to the departed server (permanent read "
               "failures). The migrator pays a bounded makespan per "
               "transition, keeps skew near 1 and every file readable "
               "through both scale-out and scale-in.\n";
  return 0;
}
