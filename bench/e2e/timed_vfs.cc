#include "timed_vfs.h"

#include <algorithm>
#include <cstdio>
#include <utility>

#include "common/bytes.h"
#include "mtc/workflow.h"
#include "sim/task.h"

namespace memfs::bench {

namespace {

constexpr std::array<const char*, kVfsOps> kOpSpanNames = {
    "call.create", "call.open",  "call.read",
    "call.write",  "call.close", "call.mkdir"};

// The second waiter on a call's future: resumed right before the caller, at
// the same simulated instant, and only records.
template <typename T, typename OnDone>
sim::Task Watch(sim::Future<T> future, OnDone on_done) {
  const T result = co_await future;
  on_done(result);
}

// "~" and 16 hex digits of a mix of `seed`: every seed renames every path by
// the same number of bytes, so seeds differ in placement, not in key sizes.
std::string SaltFor(std::uint64_t seed) {
  std::uint64_t z = seed + 0x9e3779b97f4a7c15ull;  // splitmix64 finalizer
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
  z ^= z >> 31;
  char text[18];
  std::snprintf(text, sizeof(text), "~%016llx",
                static_cast<unsigned long long>(z));
  return text;
}

}  // namespace

TimedVfs::TimedVfs(sim::Simulation& sim, fs::Vfs& inner, std::uint64_t seed,
                   bool timed, trace::Tracer* tracer)
    : sim_(sim),
      inner_(inner),
      salt_(SaltFor(seed)),
      timed_(timed),
      tracer_(tracer) {}

std::string TimedVfs::Salted(const std::string& path) const {
  if (path.size() <= 1) return path;
  std::string out;
  out.reserve(path.size() + 8 * salt_.size());
  for (std::size_t i = 0; i < path.size(); ++i) {
    if (path[i] == '/' && i != 0) out += salt_;
    out += path[i];
  }
  out += salt_;
  return out;
}

TimedVfs::Call TimedVfs::Begin(VfsOp op, fs::VfsContext& ctx) {
  Call call{op, sim_.now(), {}};
  ++tally_.calls;
  tally_.first_call = std::min(tally_.first_call, call.start);
  if (tracer_ != nullptr && !ctx.trace.active()) {
    call.root = tracer_->StartTrace(kOpSpanNames[static_cast<std::size_t>(op)],
                                    "bench", ctx.node);
    ctx.trace = call.root;
  }
  return call;
}

void TimedVfs::Finish(const Call& call, const Status& status) {
  const sim::SimTime now = sim_.now();
  tally_.last_done = std::max(tally_.last_done, now);
  tally_.op_ns[static_cast<std::size_t>(call.op)].push_back(now - call.start);
  if (!status.ok()) ++tally_.failed;
  trace::End(call.root);
}

sim::Future<Result<fs::FileHandle>> TimedVfs::Create(fs::VfsContext ctx,
                                                     std::string path) {
  if (!timed_) return inner_.Create(ctx, Salted(path));
  const Call call = Begin(VfsOp::kCreate, ctx);
  auto future = inner_.Create(ctx, Salted(path));
  Watch(future, [this, call, seed = mtc::FileSeed(path)](
                    const Result<fs::FileHandle>& created) {
    Finish(call, created.status());
    if (created.ok()) {
      handles_[created.value()] = OpenHandle{seed, true, call.start, 0};
    }
  });
  return future;
}

sim::Future<Result<fs::FileHandle>> TimedVfs::Open(fs::VfsContext ctx,
                                                   std::string path) {
  if (!timed_) return inner_.Open(ctx, Salted(path));
  const Call call = Begin(VfsOp::kOpen, ctx);
  auto future = inner_.Open(ctx, Salted(path));
  Watch(future, [this, call, seed = mtc::FileSeed(path)](
                    const Result<fs::FileHandle>& opened) {
    Finish(call, opened.status());
    if (opened.ok()) {
      handles_[opened.value()] = OpenHandle{seed, false, call.start, 0};
    }
  });
  return future;
}

sim::Future<Status> TimedVfs::Write(fs::VfsContext ctx, fs::FileHandle handle,
                                    Bytes data) {
  if (!timed_) return inner_.Write(ctx, handle, std::move(data));
  const Call call = Begin(VfsOp::kWrite, ctx);
  const std::uint64_t size = data.size();
  auto future = inner_.Write(ctx, handle, std::move(data));
  Watch(future, [this, call, handle, size](const Status& written) {
    Finish(call, written);
    if (!written.ok()) return;
    tally_.bytes_written += size;
    auto it = handles_.find(handle);
    if (it != handles_.end()) it->second.bytes += size;
  });
  return future;
}

sim::Future<Result<Bytes>> TimedVfs::Read(fs::VfsContext ctx,
                                          fs::FileHandle handle,
                                          std::uint64_t offset,
                                          std::uint64_t length) {
  if (!timed_) return inner_.Read(ctx, handle, offset, length);
  const Call call = Begin(VfsOp::kRead, ctx);
  auto future = inner_.Read(ctx, handle, offset, length);
  Watch(future, [this, call, handle, offset](const Result<Bytes>& chunk) {
    Finish(call, chunk.status());
    if (!chunk.ok()) return;
    const std::uint64_t got = chunk.value().size();
    tally_.bytes_read += got;
    auto it = handles_.find(handle);
    if (it == handles_.end()) {
      ++tally_.mismatches;  // data from a handle this run never opened
      return;
    }
    it->second.bytes += got;
    const Bytes expected =
        Bytes::Synthetic(offset + got, it->second.content_seed)
            .Slice(offset, got);
    if (!expected.ContentEquals(chunk.value())) ++tally_.mismatches;
  });
  return future;
}

sim::Future<Status> TimedVfs::Close(fs::VfsContext ctx,
                                    fs::FileHandle handle) {
  if (!timed_) return inner_.Close(ctx, handle);
  const Call call = Begin(VfsOp::kClose, ctx);
  auto future = inner_.Close(ctx, handle);
  Watch(future, [this, call, handle](const Status& closed) {
    Finish(call, closed);
    auto it = handles_.find(handle);
    if (it == handles_.end()) return;
    const OpenHandle& file = it->second;
    if (closed.ok() && file.bytes > 0) {
      (file.writing ? tally_.file_write_ns : tally_.file_read_ns)
          .push_back(sim_.now() - file.opened);
    }
    handles_.erase(it);
  });
  return future;
}

sim::Future<Status> TimedVfs::Mkdir(fs::VfsContext ctx, std::string path) {
  if (!timed_) return inner_.Mkdir(ctx, Salted(path));
  const Call call = Begin(VfsOp::kMkdir, ctx);
  auto future = inner_.Mkdir(ctx, Salted(path));
  Watch(future, [this, call](const Status& s) { Finish(call, s); });
  return future;
}

// No workload of the benchmark issues the remaining calls; they are only
// renamed.

sim::Future<Status> TimedVfs::Flush(fs::VfsContext ctx,
                                    fs::FileHandle handle) {
  return inner_.Flush(ctx, handle);
}

sim::Future<Result<std::vector<fs::FileInfo>>> TimedVfs::ReadDir(
    fs::VfsContext ctx, std::string path) {
  return inner_.ReadDir(ctx, Salted(path));
}

sim::Future<Result<fs::DirPage>> TimedVfs::ReadDirPage(fs::VfsContext ctx,
                                                       std::string path,
                                                       fs::DirCursor cursor,
                                                       std::uint32_t limit) {
  return inner_.ReadDirPage(ctx, Salted(path), cursor, limit);
}

sim::Future<Result<fs::FileInfo>> TimedVfs::Stat(fs::VfsContext ctx,
                                                 std::string path) {
  return inner_.Stat(ctx, Salted(path));
}

sim::Future<Status> TimedVfs::Unlink(fs::VfsContext ctx, std::string path) {
  return inner_.Unlink(ctx, Salted(path));
}

sim::Future<Status> TimedVfs::Rmdir(fs::VfsContext ctx, std::string path) {
  return inner_.Rmdir(ctx, Salted(path));
}

sim::Future<Status> TimedVfs::Rename(fs::VfsContext ctx, std::string from,
                                     std::string to) {
  return inner_.Rename(ctx, Salted(from), Salted(to));
}

sim::Future<Status> TimedVfs::Link(fs::VfsContext ctx, std::string existing,
                                   std::string link) {
  return inner_.Link(ctx, Salted(existing), Salted(link));
}

}  // namespace memfs::bench
