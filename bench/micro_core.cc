// CPU microbenchmarks for the data-path building blocks (google-benchmark):
// striping arithmetic, payload slicing/appending (real and synthetic), the
// KvServer state machine, the metadata codec, and raw event throughput of
// the simulation core — the engine every reproduced figure runs on.
#include <string>
#include <vector>

#include <benchmark/benchmark.h>

#include "common/bytes.h"
#include "common/units.h"
#include "kvstore/kv_server.h"
#include "memfs/striper.h"
#include "meta/meta.h"
#include "sim/simulation.h"

namespace {

using memfs::Bytes;
using memfs::units::KiB;
using memfs::units::MiB;

void BM_StriperSpans(benchmark::State& state) {
  memfs::fs::Striper striper(KiB(512));
  const std::uint64_t file_size = MiB(128);
  std::uint64_t offset = 0;
  for (auto _ : state) {
    auto spans = striper.Spans(offset % file_size, KiB(4), file_size);
    benchmark::DoNotOptimize(spans);
    offset += KiB(4);
  }
}
BENCHMARK(BM_StriperSpans);

void BM_StripeKey(benchmark::State& state) {
  std::uint32_t index = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        memfs::fs::Striper::StripeKey("/blast/db/frag_00042.db", index++));
  }
}
BENCHMARK(BM_StripeKey);

void BM_SyntheticSlice(benchmark::State& state) {
  const Bytes big = Bytes::Synthetic(memfs::units::GiB(4), 7);
  std::uint64_t offset = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(big.Slice(offset % (memfs::units::GiB(3)),
                                       KiB(512)));
    offset += KiB(512);
  }
}
BENCHMARK(BM_SyntheticSlice);

void BM_RealSliceAppend(benchmark::State& state) {
  const Bytes content = Bytes::Pattern(MiB(1), 3);
  for (auto _ : state) {
    Bytes out;
    for (std::uint64_t off = 0; off < MiB(1); off += KiB(256)) {
      out.Append(content.Slice(off, KiB(256)));
    }
    benchmark::DoNotOptimize(out.fingerprint());
  }
  state.SetBytesProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(MiB(1)));
}
BENCHMARK(BM_RealSliceAppend);

void BM_KvServerSetGet(benchmark::State& state) {
  memfs::kv::KvServer server;
  const Bytes value = Bytes::Synthetic(KiB(512), 1);
  std::uint64_t i = 0;
  for (auto _ : state) {
    const std::string key = "/f#" + std::to_string(i % 1024);
    benchmark::DoNotOptimize(server.Set(key, value));
    benchmark::DoNotOptimize(server.Get(key));
    ++i;
  }
}
BENCHMARK(BM_KvServerSetGet);

void BM_KvServerAppend(benchmark::State& state) {
  memfs::kv::KvServer server;
  (void)server.Set("dir", memfs::meta::DirRecordHeader());
  const Bytes event = memfs::meta::DirEvent("file_0001.fits", false);
  for (auto _ : state) {
    benchmark::DoNotOptimize(server.Append("dir", event));
  }
}
BENCHMARK(BM_KvServerAppend);

void BM_MetadataDecode(benchmark::State& state) {
  Bytes dir = memfs::meta::DirRecordHeader();
  for (int i = 0; i < state.range(0); ++i) {
    dir.Append(memfs::meta::DirEvent("f" + std::to_string(i), false));
  }
  std::vector<std::string> names;
  for (auto _ : state) {
    auto decoded = memfs::meta::DecodePathRecord(dir, &names);
    benchmark::DoNotOptimize(decoded);
    benchmark::DoNotOptimize(names);
  }
}
BENCHMARK(BM_MetadataDecode)->Arg(16)->Arg(256);

void BM_SimulationEventLoop(benchmark::State& state) {
  for (auto _ : state) {
    memfs::sim::Simulation sim;
    std::uint64_t fired = 0;
    for (int i = 0; i < 1000; ++i) {
      sim.Schedule(static_cast<memfs::sim::SimTime>(i * 17 % 900),
                   [&fired] { ++fired; });
    }
    sim.Run();
    benchmark::DoNotOptimize(fired);
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          1000);
}
BENCHMARK(BM_SimulationEventLoop);

}  // namespace
