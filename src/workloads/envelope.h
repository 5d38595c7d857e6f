// MTC Envelope micro-benchmarks (§4.1).
//
// The MTC Envelope characterizes a system's ability to run MTC workloads
// with eight metrics: write bandwidth+throughput, 1-1 read (every node reads
// a different file) bandwidth+throughput, N-1 read (every node reads the
// same file) bandwidth+throughput, and metadata create/open throughput.
//
// This is the iozone/mdtest stand-in. Phases run against the common Vfs
// interface; the AMFS-specific benchmarking pattern of the AMFS paper is
// honoured: the N-1 read first multicasts the file to every node, then reads
// locally — the multicast time counts toward N-1 *bandwidth* but not toward
// N-1 *throughput*; the remote 1-1 variant opens files created by another
// node (Table 1's worst case).
#pragma once

#include <cstdint>
#include <optional>
#include <string>

#include "amfs/amfs.h"
#include "common/status.h"
#include "common/units.h"
#include "memfs/vfs.h"
#include "sim/simulation.h"

namespace memfs::workloads {

struct EnvelopeParams {
  std::uint32_t nodes = 1;
  std::uint32_t procs_per_node = 1;
  std::uint64_t file_size = units::MiB(1);
  std::uint32_t files_per_proc = 4;
  // read()/write() call size; 0 = one call per file (capped at 1 MiB).
  std::uint64_t io_block = 0;
  // Fixed cost charged before each file's write/read in the data phases.
  // The AMFS benchmarking pattern runs every iozone file as a separate AMFS
  // Shell job, so its envelope numbers carry the Shell's locality-scheduling
  // latency per file — the paper's explanation for MemFS winning the
  // latency-bound small-file reads (§4.1). Zero for MemFS (the
  // locality-agnostic scheme has no placement work to do). Metadata phases
  // (mdtest) never carry it.
  sim::SimTime per_file_job_overhead = 0;
};

struct PhaseResult {
  // The phase's first error (an op, a content mismatch, the N-1 setup or
  // multicast); a failed phase still reports what it did.
  Status status;
  sim::SimTime span = 0;        // wall time of the whole phase (max proc)
  sim::SimTime work_span = 0;   // excluding collective setup (multicast)
  std::uint64_t bytes = 0;
  std::uint64_t ops = 0;        // read()/write()/create()/open() calls

  // iozone/mdtest-style aggregates: the SUM of per-process rates, each
  // process timed individually ("children see throughput"). The collective
  // setup (AMFS multicast) counts toward each process's bandwidth window but
  // not its throughput window, matching the paper's N-1 accounting.
  double sum_proc_mbps = 0.0;
  double sum_proc_ops_per_sec = 0.0;

  double BandwidthMBps() const { return sum_proc_mbps; }
  double OpsPerSec() const { return sum_proc_ops_per_sec; }

  // Volume over the work span (strager-sensitive; used by Fig. 16's
  // system-bandwidth accounting).
  double WorkBandwidthMBps() const { return units::MBps(bytes, work_span); }
};

class EnvelopeBench {
 public:
  // `amfs` must be passed when (and only when) `vfs` is the AMFS instance;
  // it enables the multicast N-1 pattern and remote-read variants.
  EnvelopeBench(sim::Simulation& sim, fs::Vfs& vfs, EnvelopeParams params,
                amfs::Amfs* amfs = nullptr);

  // Each phase drives the simulation loop to completion. Phases must run in
  // order: write first (it creates the working set the reads consume), and
  // create before open. A phase run out of order, a phase whose processes
  // did not all finish, and every phase after a failed `/env` mkdir return
  // the error as their status.
  PhaseResult RunWrite();

  // 1-1 read: every process reads the files written by the process
  // `node_shift` nodes away (0 = own files, the locality-scheduled pattern).
  PhaseResult RunRead11(std::uint32_t node_shift = 0);

  // N-1 read: every process reads one shared file (written by node 0).
  PhaseResult RunReadN1();

  // Metadata phases (mdtest): create empty files / open existing ones.
  PhaseResult RunCreate(std::uint32_t files_per_proc);
  PhaseResult RunOpen();

 private:
  std::uint64_t BlockSize() const;

  sim::Simulation& sim_;
  fs::Vfs& vfs_;
  EnvelopeParams params_;
  amfs::Amfs* amfs_;
  Status setup_error_;  // the constructor's mkdir of /env
  std::string shared_file_;
  std::optional<std::uint32_t> meta_files_;  // set by RunCreate
  bool wrote_ = false;
};

}  // namespace memfs::workloads
