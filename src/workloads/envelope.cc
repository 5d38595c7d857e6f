#include "workloads/envelope.h"

#include <algorithm>

#include "mtc/workflow.h"
#include "sim/sync.h"
#include "sim/task.h"

namespace memfs::workloads {

namespace {

struct PhaseCounter {
  std::uint64_t ops = 0;
  std::uint64_t bytes = 0;
  Status error;

  // iozone-style aggregation: sum of per-process rates.
  double sum_proc_mbps = 0.0;
  double sum_proc_ops_per_sec = 0.0;

  void Note(const Status& status) {
    if (!status.ok() && error.ok()) error = status;
  }

  // Folds one finished process into the aggregate. `bw_start` is the phase
  // start (includes collective setup), `work_start` is when the process
  // itself began issuing operations.
  void MergeProcess(const PhaseCounter& proc, sim::SimTime bw_start,
                    sim::SimTime work_start, sim::SimTime end) {
    ops += proc.ops;
    bytes += proc.bytes;
    Note(proc.error);
    if (end > bw_start) {
      sum_proc_mbps += units::MBps(proc.bytes, end - bw_start);
    }
    if (end > work_start) {
      sum_proc_ops_per_sec += static_cast<double>(proc.ops) /
                              units::ToSeconds(end - work_start);
    }
  }
};

sim::Task WriteOneFile(sim::Simulation& sim, fs::Vfs& vfs, fs::VfsContext ctx,
                       std::string path, std::uint64_t size,
                       std::uint64_t block, PhaseCounter& counter,
                       sim::WaitGroup& wg) {
  (void)sim;
  auto created = co_await vfs.Create(ctx, path);
  if (!created.ok()) {
    counter.Note(created.status());
    wg.Done();
    co_return;
  }
  const Bytes content = Bytes::Synthetic(size, mtc::FileSeed(path));
  std::uint64_t offset = 0;
  while (offset < size) {
    const std::uint64_t len = std::min(block, size - offset);
    Status written =
        co_await vfs.Write(ctx, created.value(), content.Slice(offset, len));
    if (!written.ok()) {
      counter.Note(written);
      break;
    }
    ++counter.ops;
    counter.bytes += len;
    offset += len;
  }
  counter.Note(co_await vfs.Close(ctx, created.value()));
  wg.Done();
}

sim::Task ReadOneFile(fs::Vfs& vfs, fs::VfsContext ctx, std::string path,
                      std::uint64_t block, PhaseCounter& counter,
                      sim::WaitGroup& wg) {
  auto opened = co_await vfs.Open(ctx, path);
  if (!opened.ok()) {
    counter.Note(opened.status());
    wg.Done();
    co_return;
  }
  const std::uint64_t seed = mtc::FileSeed(path);
  std::uint64_t offset = 0;
  while (true) {
    auto chunk = co_await vfs.Read(ctx, opened.value(), offset, block);
    if (!chunk.ok()) {
      counter.Note(chunk.status());
      break;
    }
    const std::uint64_t got = chunk.value().size();
    if (got == 0) break;
    ++counter.ops;
    counter.bytes += got;
    const Bytes expected =
        Bytes::Synthetic(offset + got, seed).Slice(offset, got);
    if (!expected.ContentEquals(chunk.value())) {
      counter.Note(status::Internal("envelope content mismatch: " + path));
      break;
    }
    offset += got;
    if (got < block) break;
  }
  counter.Note(co_await vfs.Close(ctx, opened.value()));
  wg.Done();
}

// The file names of the data and metadata phases. Each process builds one
// when it issues the call, so a phase never holds its whole name list.
std::string FilePath(std::uint32_t node, std::uint32_t proc,
                     std::uint32_t index) {
  return "/env/d_n" + std::to_string(node) + "_p" + std::to_string(proc) +
         "_f" + std::to_string(index);
}

std::string MetaPath(std::uint32_t node, std::uint32_t proc,
                     std::uint32_t index) {
  return "/env/m_n" + std::to_string(node) + "_p" + std::to_string(proc) +
         "_f" + std::to_string(index);
}

// One simulated benchmark process working through its files sequentially,
// exactly like an iozone/mdtest process would. Concurrency comes from the
// nodes x procs_per_node grid, not from within a process.
sim::Task WriterProcess(sim::Simulation& sim, fs::Vfs& vfs, fs::VfsContext ctx,
                        std::uint32_t count, std::uint64_t size,
                        std::uint64_t block, sim::SimTime job_overhead,
                        sim::SimTime bw_start, PhaseCounter& total,
                        sim::WaitGroup& wg) {
  PhaseCounter mine;
  const sim::SimTime work_start = sim.now();
  for (std::uint32_t f = 0; f < count; ++f) {
    if (job_overhead != 0) co_await sim.Delay(job_overhead);
    sim::WaitGroup one(sim);
    one.Add();
    WriteOneFile(sim, vfs, ctx, FilePath(ctx.node, ctx.process, f), size,
                 block, mine, one);
    co_await one.Wait();
  }
  total.MergeProcess(mine, bw_start, work_start, sim.now());
  wg.Done();
}

// Reads `count` files: those process `ctx.process` of node `source` wrote,
// or, when `shared` is set, that one file `count` times.
sim::Task ReaderProcess(sim::Simulation& sim, fs::Vfs& vfs, fs::VfsContext ctx,
                        std::uint32_t source, std::uint32_t count,
                        const std::string* shared, std::uint64_t block,
                        sim::SimTime job_overhead, sim::SimTime bw_start,
                        PhaseCounter& total, sim::WaitGroup& wg) {
  PhaseCounter mine;
  const sim::SimTime work_start = sim.now();
  for (std::uint32_t f = 0; f < count; ++f) {
    if (job_overhead != 0) co_await sim.Delay(job_overhead);
    sim::WaitGroup one(sim);
    one.Add();
    ReadOneFile(vfs, ctx,
                shared != nullptr ? *shared : FilePath(source, ctx.process, f),
                block, mine, one);
    co_await one.Wait();
  }
  total.MergeProcess(mine, bw_start, work_start, sim.now());
  wg.Done();
}

sim::Task CreateProcess(sim::Simulation& sim, fs::Vfs& vfs, fs::VfsContext ctx,
                        std::uint32_t count, PhaseCounter& total,
                        sim::WaitGroup& wg) {
  PhaseCounter mine;
  const sim::SimTime start = sim.now();
  for (std::uint32_t f = 0; f < count; ++f) {
    auto created = co_await vfs.Create(ctx, MetaPath(ctx.node, ctx.process, f));
    ++mine.ops;
    if (!created.ok()) {
      mine.Note(created.status());
    } else {
      mine.Note(co_await vfs.Close(ctx, created.value()));
    }
  }
  total.MergeProcess(mine, start, start, sim.now());
  wg.Done();
}

sim::Task OpenProcess(sim::Simulation& sim, fs::Vfs& vfs, fs::VfsContext ctx,
                      std::uint32_t count, PhaseCounter& total,
                      sim::WaitGroup& wg) {
  PhaseCounter mine;
  const sim::SimTime start = sim.now();
  for (std::uint32_t f = 0; f < count; ++f) {
    auto opened = co_await vfs.Open(ctx, MetaPath(ctx.node, ctx.process, f));
    ++mine.ops;
    if (!opened.ok()) {
      mine.Note(opened.status());
    } else {
      mine.Note(co_await vfs.Close(ctx, opened.value()));
    }
  }
  total.MergeProcess(mine, start, start, sim.now());
  wg.Done();
}

// A phase's result once the simulation loop has drained: the first error of
// its processes, or, when none failed, an error naming how many never
// finished (a lost wakeup would otherwise pass as a short, successful run).
PhaseResult Collect(const PhaseCounter& counter, const sim::WaitGroup& wg,
                    sim::SimTime span, sim::SimTime work_span) {
  PhaseResult result;
  result.status = counter.error;
  if (result.status.ok() && wg.pending() != 0) {
    result.status = status::Internal(std::to_string(wg.pending()) +
                                     " envelope processes never finished");
  }
  result.span = span;
  result.work_span = work_span;
  result.bytes = counter.bytes;
  result.ops = counter.ops;
  result.sum_proc_mbps = counter.sum_proc_mbps;
  result.sum_proc_ops_per_sec = counter.sum_proc_ops_per_sec;
  return result;
}

PhaseResult Failed(Status status) {
  PhaseResult result;
  result.status = std::move(status);
  return result;
}

sim::Task RunMkdir(fs::Vfs& vfs, std::string path, Status& out, bool& flag) {
  out = co_await vfs.Mkdir(fs::VfsContext{0, 0, {}}, std::move(path));
  flag = true;
}

}  // namespace

EnvelopeBench::EnvelopeBench(sim::Simulation& sim, fs::Vfs& vfs,
                             EnvelopeParams params, amfs::Amfs* amfs)
    : sim_(sim), vfs_(vfs), params_(params), amfs_(amfs) {
  Status status;
  bool flag = false;
  RunMkdir(vfs_, "/env", status, flag);
  sim_.Run();
  if (!flag) {
    setup_error_ = status::Internal("envelope mkdir /env never finished");
  } else if (!status.ok() && status.code() != ErrorCode::kExists) {
    setup_error_ = status;
  }
}

std::uint64_t EnvelopeBench::BlockSize() const {
  if (params_.io_block != 0) return params_.io_block;
  return std::min<std::uint64_t>(std::max<std::uint64_t>(params_.file_size, 1),
                                 units::MiB(1));
}

PhaseResult EnvelopeBench::RunWrite() {
  if (!setup_error_.ok()) return Failed(setup_error_);
  PhaseCounter counter;
  sim::WaitGroup wg(sim_);
  const sim::SimTime start = sim_.now();
  for (std::uint32_t node = 0; node < params_.nodes; ++node) {
    for (std::uint32_t proc = 0; proc < params_.procs_per_node; ++proc) {
      wg.Add();
      WriterProcess(sim_, vfs_, fs::VfsContext{node, proc, {}},
                    params_.files_per_proc, params_.file_size, BlockSize(),
                    params_.per_file_job_overhead, start, counter, wg);
    }
  }
  sim_.Run();
  wrote_ = true;
  const sim::SimTime span = sim_.now() - start;
  return Collect(counter, wg, span, span);
}

PhaseResult EnvelopeBench::RunRead11(std::uint32_t node_shift) {
  if (!setup_error_.ok()) return Failed(setup_error_);
  if (!wrote_) {
    return Failed(status::InvalidArgument(
        "envelope: RunWrite must precede the 1-1 read"));
  }
  PhaseCounter counter;
  sim::WaitGroup wg(sim_);
  const sim::SimTime start = sim_.now();
  for (std::uint32_t node = 0; node < params_.nodes; ++node) {
    const std::uint32_t source = (node + node_shift) % params_.nodes;
    for (std::uint32_t proc = 0; proc < params_.procs_per_node; ++proc) {
      wg.Add();
      ReaderProcess(sim_, vfs_, fs::VfsContext{node, proc, {}}, source,
                    params_.files_per_proc, nullptr, BlockSize(),
                    params_.per_file_job_overhead, start, counter, wg);
    }
  }
  sim_.Run();
  const sim::SimTime span = sim_.now() - start;
  return Collect(counter, wg, span, span);
}

PhaseResult EnvelopeBench::RunReadN1() {
  if (!setup_error_.ok()) return Failed(setup_error_);
  if (!wrote_) {
    return Failed(status::InvalidArgument(
        "envelope: RunWrite must precede the N-1 read"));
  }
  // Shared file written once by node 0 (setup; not timed).
  Status setup_error;
  if (shared_file_.empty()) {
    shared_file_ = "/env/shared_n1";
    PhaseCounter setup;
    sim::WaitGroup wg(sim_);
    wg.Add();
    WriteOneFile(sim_, vfs_, fs::VfsContext{0, 0, {}}, shared_file_,
                 params_.file_size, BlockSize(), setup, wg);
    sim_.Run();
    setup_error = setup.error;
  }

  const sim::SimTime start = sim_.now();
  if (amfs_ != nullptr) {
    // The AMFS benchmarking pattern: multicast first, then local reads. The
    // multicast time counts toward bandwidth but not throughput.
    bool multicast_done = false;
    Status multicast_status;
    [](amfs::Amfs* fs, std::string path, Status& out,
       bool& flag) -> sim::Task {
      out = co_await fs->Multicast(fs::VfsContext{0, 0, {}}, std::move(path));
      flag = true;
    }(amfs_, shared_file_, multicast_status, multicast_done);
    sim_.Run();
    if (!multicast_done) {
      multicast_status =
          status::Internal("envelope N-1 multicast never finished");
    }
    if (setup_error.ok()) setup_error = multicast_status;
  }
  const sim::SimTime reads_start = sim_.now();

  PhaseCounter counter;
  sim::WaitGroup wg(sim_);
  for (std::uint32_t node = 0; node < params_.nodes; ++node) {
    for (std::uint32_t proc = 0; proc < params_.procs_per_node; ++proc) {
      wg.Add();
      ReaderProcess(sim_, vfs_, fs::VfsContext{node, proc, {}}, node, 1,
                    &shared_file_, BlockSize(), params_.per_file_job_overhead,
                    start, counter, wg);
    }
  }
  sim_.Run();

  // The span includes the multicast, the work span covers the reads only.
  PhaseResult result = Collect(counter, wg, sim_.now() - start,
                               sim_.now() - reads_start);
  if (!setup_error.ok()) result.status = setup_error;
  return result;
}

PhaseResult EnvelopeBench::RunCreate(std::uint32_t files_per_proc) {
  if (!setup_error_.ok()) return Failed(setup_error_);
  meta_files_ = files_per_proc;
  PhaseCounter counter;
  sim::WaitGroup wg(sim_);
  const sim::SimTime start = sim_.now();
  for (std::uint32_t node = 0; node < params_.nodes; ++node) {
    for (std::uint32_t proc = 0; proc < params_.procs_per_node; ++proc) {
      wg.Add();
      CreateProcess(sim_, vfs_, fs::VfsContext{node, proc, {}}, files_per_proc,
                    counter, wg);
    }
  }
  sim_.Run();
  const sim::SimTime span = sim_.now() - start;
  return Collect(counter, wg, span, span);
}

PhaseResult EnvelopeBench::RunOpen() {
  if (!setup_error_.ok()) return Failed(setup_error_);
  if (!meta_files_) {
    return Failed(
        status::InvalidArgument("envelope: RunCreate must precede RunOpen"));
  }
  PhaseCounter counter;
  sim::WaitGroup wg(sim_);
  const sim::SimTime start = sim_.now();
  for (std::uint32_t node = 0; node < params_.nodes; ++node) {
    for (std::uint32_t proc = 0; proc < params_.procs_per_node; ++proc) {
      wg.Add();
      OpenProcess(sim_, vfs_, fs::VfsContext{node, proc, {}}, *meta_files_,
                  counter, wg);
    }
  }
  sim_.Run();
  const sim::SimTime span = sim_.now() - start;
  return Collect(counter, wg, span, span);
}

}  // namespace memfs::workloads
