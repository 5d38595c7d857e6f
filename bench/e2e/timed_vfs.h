// TimedVfs: the benchmark's view of a file system, taken from outside it.
//
// A Vfs decorator that every workload of memfs_bench runs through. It
//  * salts every path component with the run's seed, so each seed moves
//    every file's stripe and metadata placement while the workload (and the
//    content seed, FileSeed of the unsalted path) stays the same;
//  * times every create, open, read, write, close and mkdir in simulated
//    time, from the call to the completion of its future, and counts failed
//    calls (the workloads issue no other call; the rest are only renamed);
//  * checks every read against Bytes::Synthetic(FileSeed(path)) and counts
//    mismatches;
//  * in traced runs, opens one root span per call for callers that carry no
//    trace of their own (the envelope and faulted clients; workflow tasks
//    bring the runner's trace).
//
// Neutrality: the caller gets the inner future itself. The decorator watches
// it from a second waiter coroutine that only records, so the simulated
// system sees the same events in the same order; the watcher adds one
// resume event per call, which changes the event count and digest but no
// simulated result. With `timed == false` the decorator only renames paths
// and adds no events at all (the undecorated arm of the neutrality gate).
#pragma once

#include <array>
#include <cstdint>
#include <limits>
#include <string>
#include <unordered_map>
#include <vector>

#include "memfs/vfs.h"
#include "sim/simulation.h"
#include "trace/trace.h"

namespace memfs::bench {

// The calls TimedVfs times; the rest of the Vfs surface is only renamed.
enum class VfsOp : std::uint8_t {
  kCreate,
  kOpen,
  kRead,
  kWrite,
  kClose,
  kMkdir,
};
inline constexpr std::size_t kVfsOps = 6;

// Everything TimedVfs observed, in simulated nanoseconds.
struct VfsTally {
  std::uint64_t calls = 0;
  std::uint64_t failed = 0;
  std::uint64_t mismatches = 0;
  std::uint64_t bytes_read = 0;
  std::uint64_t bytes_written = 0;
  sim::SimTime first_call = std::numeric_limits<sim::SimTime>::max();
  sim::SimTime last_done = 0;
  // Per-call latency, indexed by VfsOp.
  std::array<std::vector<std::uint64_t>, kVfsOps> op_ns;
  // Create -> Close of write handles that wrote data, and Open -> Close of
  // read handles that read data.
  std::vector<std::uint64_t> file_write_ns;
  std::vector<std::uint64_t> file_read_ns;

  sim::SimTime span() const {
    return last_done > first_call ? last_done - first_call : 0;
  }
};

class TimedVfs final : public fs::Vfs {
 public:
  // `tracer` (optional) receives one root span per untraced call.
  TimedVfs(sim::Simulation& sim, fs::Vfs& inner, std::uint64_t seed,
           bool timed, trace::Tracer* tracer = nullptr);

  sim::Future<Result<fs::FileHandle>> Create(fs::VfsContext ctx,
                                             std::string path) override;
  sim::Future<Result<fs::FileHandle>> Open(fs::VfsContext ctx,
                                           std::string path) override;
  sim::Future<Status> Write(fs::VfsContext ctx, fs::FileHandle handle,
                            Bytes data) override;
  sim::Future<Result<Bytes>> Read(fs::VfsContext ctx, fs::FileHandle handle,
                                  std::uint64_t offset,
                                  std::uint64_t length) override;
  sim::Future<Status> Flush(fs::VfsContext ctx,
                            fs::FileHandle handle) override;
  sim::Future<Status> Close(fs::VfsContext ctx,
                            fs::FileHandle handle) override;
  sim::Future<Status> Mkdir(fs::VfsContext ctx, std::string path) override;
  // Listings carry salted names.
  sim::Future<Result<std::vector<fs::FileInfo>>> ReadDir(
      fs::VfsContext ctx, std::string path) override;
  sim::Future<Result<fs::DirPage>> ReadDirPage(fs::VfsContext ctx,
                                               std::string path,
                                               fs::DirCursor cursor,
                                               std::uint32_t limit) override;
  sim::Future<Result<fs::FileInfo>> Stat(fs::VfsContext ctx,
                                         std::string path) override;
  sim::Future<Status> Unlink(fs::VfsContext ctx, std::string path) override;
  sim::Future<Status> Rmdir(fs::VfsContext ctx, std::string path) override;
  sim::Future<Status> Rename(fs::VfsContext ctx, std::string from,
                             std::string to) override;
  sim::Future<Status> Link(fs::VfsContext ctx, std::string existing,
                           std::string link) override;

  const VfsTally& tally() const { return tally_; }

 private:
  // "/a/b" -> "/a~<salt>/b~<salt>", the salt 16 hex digits drawn from the
  // seed; the root stays "/".
  std::string Salted(const std::string& path) const;

  // One call in flight: when it started and the root span it runs under.
  struct Call {
    VfsOp op = VfsOp::kCreate;
    sim::SimTime start = 0;
    trace::TraceContext root;
  };
  struct OpenHandle {
    std::uint64_t content_seed = 0;
    bool writing = false;
    sim::SimTime opened = 0;
    std::uint64_t bytes = 0;
  };

  // Stamps the call and, in traced runs, gives `ctx` a root span.
  Call Begin(VfsOp op, fs::VfsContext& ctx);
  // Records the call's completion with `status`.
  void Finish(const Call& call, const Status& status);

  sim::Simulation& sim_;
  fs::Vfs& inner_;
  std::string salt_;
  bool timed_;
  trace::Tracer* tracer_;
  VfsTally tally_;
  // Handles are looked up by id only, never iterated.
  std::unordered_map<fs::FileHandle, OpenHandle> handles_;
};

}  // namespace memfs::bench
