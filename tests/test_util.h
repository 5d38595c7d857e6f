// Shared helpers for driving simulated asynchronous APIs from gtest.
#pragma once

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "common/bytes.h"
#include "common/status.h"
#include "common/units.h"
#include "memfs/vfs.h"
#include "sim/future.h"
#include "sim/simulation.h"

namespace memfs::testing {

// Runs the simulation until the future resolves (which, with no other live
// processes, means running the queue dry) and returns the value.
template <typename T>
T Await(sim::Simulation& sim, sim::Future<T> future) {
  sim.Run();
  EXPECT_TRUE(future.ready()) << "future never resolved (deadlock?)";
  return future.value();
}

// Creates `path` from `ctx`, writes `data` in `block`-byte calls (0: one
// call; an empty file gets none) and closes it; the first error wins.
inline Status WriteFile(sim::Simulation& sim, fs::Vfs& vfs, fs::VfsContext ctx,
                        const std::string& path, const Bytes& data,
                        std::uint64_t block = 0) {
  auto created = Await(sim, vfs.Create(ctx, path));
  if (!created.ok()) return created.status();
  if (block == 0) block = std::max<std::uint64_t>(data.size(), 1);
  for (std::uint64_t offset = 0; offset < data.size(); offset += block) {
    const std::uint64_t len = std::min(block, data.size() - offset);
    const Status wrote =
        Await(sim, vfs.Write(ctx, created.value(), data.Slice(offset, len)));
    if (!wrote.ok()) return wrote;
  }
  return Await(sim, vfs.Close(ctx, created.value()));
}

// Opens `path` from `ctx` and reads it in `block`-byte calls until an empty
// read. The handle is closed on every path; a read error wins over a close
// error.
inline Result<Bytes> ReadFile(sim::Simulation& sim, fs::Vfs& vfs,
                              fs::VfsContext ctx, const std::string& path,
                              std::uint64_t block = units::MiB(1)) {
  auto opened = Await(sim, vfs.Open(ctx, path));
  if (!opened.ok()) return opened.status();
  Bytes out;
  Status failed;
  while (true) {
    auto chunk = Await(sim, vfs.Read(ctx, opened.value(), out.size(), block));
    if (!chunk.ok()) failed = chunk.status();
    if (!chunk.ok() || chunk->empty()) break;
    out.Append(*chunk);
  }
  const Status closed = Await(sim, vfs.Close(ctx, opened.value()));
  if (!failed.ok()) return failed;
  if (!closed.ok()) return closed;
  return out;
}

// Forwards every call to `inner`, except that the first non-empty read of
// `path` returns content of another seed, as a corrupted stripe would. The
// read verification of the workflow runner and of the envelope must catch
// it.
class CorruptReadVfs final : public fs::Vfs {
 public:
  CorruptReadVfs(sim::Simulation& sim, fs::Vfs& inner, std::string path)
      : sim_(sim), inner_(inner), path_(std::move(path)) {}

  sim::Simulation& simulation() const { return sim_; }
  bool corrupted() const { return corrupted_; }

  sim::Future<Result<fs::FileHandle>> Create(fs::VfsContext ctx,
                                             std::string path) override {
    return inner_.Create(ctx, std::move(path));
  }
  sim::Future<Result<fs::FileHandle>> Open(fs::VfsContext ctx,
                                           std::string path) override {
    const bool target = path == path_;
    auto opened = co_await inner_.Open(ctx, std::move(path));
    if (target && opened.ok() && !handle_.has_value()) handle_ = *opened;
    co_return opened;
  }
  sim::Future<Status> Write(fs::VfsContext ctx, fs::FileHandle handle,
                            Bytes data) override {
    return inner_.Write(ctx, handle, std::move(data));
  }
  sim::Future<Result<Bytes>> Read(fs::VfsContext ctx, fs::FileHandle handle,
                                  std::uint64_t offset,
                                  std::uint64_t length) override {
    auto got = co_await inner_.Read(ctx, handle, offset, length);
    if (corrupted_ || handle_ != handle || !got.ok() || got->empty()) {
      co_return got;
    }
    corrupted_ = true;
    co_return Bytes::Synthetic(got->size(), 0xbad5eedull);
  }
  sim::Future<Status> Flush(fs::VfsContext ctx,
                            fs::FileHandle handle) override {
    return inner_.Flush(ctx, handle);
  }
  sim::Future<Status> Close(fs::VfsContext ctx,
                            fs::FileHandle handle) override {
    return inner_.Close(ctx, handle);
  }
  sim::Future<Status> Mkdir(fs::VfsContext ctx, std::string path) override {
    return inner_.Mkdir(ctx, std::move(path));
  }
  sim::Future<Result<std::vector<fs::FileInfo>>> ReadDir(
      fs::VfsContext ctx, std::string path) override {
    return inner_.ReadDir(ctx, std::move(path));
  }
  sim::Future<Result<fs::DirPage>> ReadDirPage(fs::VfsContext ctx,
                                               std::string path,
                                               fs::DirCursor cursor,
                                               std::uint32_t limit) override {
    return inner_.ReadDirPage(ctx, std::move(path), cursor, limit);
  }
  sim::Future<Result<fs::FileInfo>> Stat(fs::VfsContext ctx,
                                         std::string path) override {
    return inner_.Stat(ctx, std::move(path));
  }
  sim::Future<Status> Unlink(fs::VfsContext ctx, std::string path) override {
    return inner_.Unlink(ctx, std::move(path));
  }
  sim::Future<Status> Rmdir(fs::VfsContext ctx, std::string path) override {
    return inner_.Rmdir(ctx, std::move(path));
  }
  sim::Future<Status> Rename(fs::VfsContext ctx, std::string from,
                             std::string to) override {
    return inner_.Rename(ctx, std::move(from), std::move(to));
  }
  sim::Future<Status> Link(fs::VfsContext ctx, std::string existing,
                           std::string link) override {
    return inner_.Link(ctx, std::move(existing), std::move(link));
  }

 private:
  sim::Simulation& sim_;
  fs::Vfs& inner_;
  std::string path_;
  std::optional<fs::FileHandle> handle_;  // the first open of path_
  bool corrupted_ = false;
};

}  // namespace memfs::testing
