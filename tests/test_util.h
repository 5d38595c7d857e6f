// Shared helpers for driving simulated asynchronous APIs from gtest.
#pragma once

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <string>

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

}  // namespace memfs::testing
