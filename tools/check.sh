#!/bin/sh
# tools/check.sh — the tier-1 verification gate plus a sanitizer pass.
#
#   1. configure + build the default (Release-ish) tree in build/,
#   2. run the full ctest suite (unit tests; the paper claims over the
#      paper-figure table; the static analyzer memfs_analyze over the whole
#      repo as the `analyze` ctest and its `lint` alias, failing on any
#      unsuppressed finding; the determinism gate; the memfs_run smoke runs;
#      the paper-ledger doc and drift checks; the byte-exact re-run of the
#      abl_elastic records; the benchmark smoke),
#   3. re-run a cheap subset of the paper figures (fig03a, fig03b, table1,
#      and fig06, the metadata scaling of both file systems from 4 to 64
#      nodes and the one figure over AMFS's metadata placement) and of the
#      ablations (substrate, transport, prefetch, replication, network
#      model, distribution, faults and migration chaos, survival, elastic
#      membership, and the metadata namespace sweep, which covers the
#      sharded service's name-token hash and page size; about 3 s together)
#      and compare it with the committed BENCH_paper.json within
#      each metric's tolerance (bench/paper_cells.cc; counts are exact),
#      failing also on a ledger record of those figures that the run no
#      longer produces,
#   4. re-run the fig08 simulator speed gate against BENCH_scale.json
#      (wall-clock, sim_events, heap allocations and the frame pool's peak
#      held bytes of the 64-node point),
#   5. configure + build with -DMEMFS_SANITIZE=address,undefined in
#      build-asan/ and re-run the determinism gate under the sanitizers
#      (`ctest -L determinism`: every scenario x observer cell of
#      tools/determinism_gate.cc, the label's only test), then the event
#      heap, pool, future, semaphore, solver, payload, kv, chaos,
#      file-system client, replication, metadata, workflow, envelope and
#      latency-recording tests,
#   6. configure + build with -DMEMFS_SANITIZE=thread in build-tsan/ and
#      re-run the same under TSan (skipped with a notice when the toolchain
#      has no libtsan).
#
# Usage: tools/check.sh [jobs]   (default: nproc)
#
# Any failing step aborts the script with a nonzero exit.
set -eu

jobs="${1:-$(nproc 2>/dev/null || echo 4)}"
root="$(cd "$(dirname "$0")/.." && pwd)"

echo "== tier 1: configure + build (${jobs} jobs) =="
cmake -S "$root" -B "$root/build" >/dev/null
cmake --build "$root/build" -j "$jobs"

echo "== tier 1: ctest =="
ctest --test-dir "$root/build" --output-on-failure

# Paper-ledger gate: the figures re-run here must reproduce the committed
# ledger (regenerate it with paper_figures --json=BENCH_paper.json
# --markdown=EXPERIMENTS.md when a change moves them on purpose).
# abl_metadata_bigdir, the slowest cell of the table, is left out.
echo "== paper ledger: fig03a fig03b table1 fig06 and cheap abl_* vs BENCH_paper.json =="
"$root/build/bench/paper_figures" --check="$root/BENCH_paper.json" \
  fig03a fig03b table1 fig06 abl_substrate abl_transport abl_prefetch \
  abl_replication abl_network_model abl_distribution abl_faults \
  abl_migration_chaos abl_survival abl_elastic abl_metadata_sweep > /dev/null

# Simulator speed gate: re-run the fig08 64-node point and compare it with
# the committed BENCH_scale.json trajectory; fails when its wall-clock is
# >20% slower (sim-events/sec is still reported), when its sim_events differ
# from the baseline's, or when its heap allocations or the frame pool's peak
# held bytes exceed the baseline's by more than 1% (all three counters are
# exact run to run). On hardware slower than the baseline's, widen the
# wall-clock gate with MEMFS_PERF_GATE_TOLERANCE (e.g. 0.5) instead of
# skipping it.
echo "== perf gate: fig08 64-node wall-clock and counters vs BENCH_scale.json =="
"$root/build/bench/micro_latency_profile" --scale \
  --baseline="$root/BENCH_scale.json" > /dev/null

echo "== sanitizers: configure + build (address,undefined) =="
cmake -S "$root" -B "$root/build-asan" \
  -DMEMFS_SANITIZE=address,undefined >/dev/null
cmake --build "$root/build-asan" -j "$jobs"

echo "== sanitizers: determinism gate =="
ctest --test-dir "$root/build-asan" -L determinism --output-on-failure

# The event-cell slab, the same-instant FIFO, cancelled cells (a cancelled
# event's callable is destroyed unrun and its cell recycled while the heap
# re-sorts around the hole; the kv deadline timer it cancels holds the
# shared BatchCall) and the frame pool run under
# ASan/UBSan here (the pool's free lists bypass to plain new/delete under
# sanitizers so every frame keeps its true lifetime — the slab does not
# bypass and is fully checked; the PoolAllocTest cases that test recycling
# and the idle-block decay are compiled out in these builds, and only the
# oversize case runs), as do the futures' two inline waiters and the fluid
# solver's finish-heap indices. The kv call tests ride along: an attempt
# cut off by its deadline keeps the shared BatchCall alive after the
# retry driver has moved on to the next attempt, and a single-key call's
# verdict is read out of that call one resume later, which is where a
# lifetime bug in the kv RPC engine would hide. So do the chaos tests: the
# chaos coroutines (src/workloads/chaos.h) write into caller-owned results.
# And so do the file-system client tests (MemFS, AMFS, the sharded metadata
# client, the workflow runner, elastic membership): their operations are
# sim::Future coroutines, and one that took a reference parameter and read it
# after its first suspension would read a dead caller's frame. The payload
# and kv server tests cover the manual memory of a stored object: Bytes keeps
# its real buffer in a union with the synthetic generator, and the kv object
# table places each value and the rest of its key in one raw block, carved
# from a chunk of its slab (under ASan/TSan the slab bypasses to one heap
# block per object, MEMFS_POOL_ALLOC_BYPASS, so a use after Erase or Clear
# stays visible), behind a prefix shared through the table. The semaphore
# keeps its waiter FIFO in a vector with its own head index, and the workflow
# tests cover the file and string tables: a running task holds spans into the
# workflow's flat id array and views into its string table across every
# co_await, and the golden digest reads every builder string back through
# them. The scripted op-scheduler bursts cover a lane's queue buffer, which a
# drain round hands whole to its batch when every queued op joins it. The
# envelope golden and accounting tests cover the envelope processes, which
# build each file name inside their coroutine frames, and the N-1 readers,
# which read the shared name through a pointer into the bench; the payload
# tests cover the size and form flags packed into one word.
tests='EventHeap|PoolAlloc|SimChecker|FutureTest|FluidNetwork|SolverEquivalence'
tests="$tests|SemaphoreTest|BytesTest|KvServerTest"
tests="$tests|KvCluster|KvBatch|KvGauge|FaultCluster|OpScheduler"
tests="$tests|ChaosSoak|MigrationChaos"
tests="$tests|MemFsTest|AmfsTest|MetaFsTest|MetaChaos|RunnerTest|ElasticClusterTest"
# The replication and epoch tests drive the replica layer under both
# namespaces (src/io/replicated_store.h): failover reads, read repair that
# outlives the read that started it, degraded writes and epoch pinning.
tests="$tests|ReplicationTest|ElasticTest"
# Both MemFs metadata arms and the moved codec; ASan catches a ?: co_await double free.
tests="$tests|MetadataTest|MetaCodecTest|CrossFsListingTest|CrossModeNamespaceTest"
tests="$tests|WorkflowTest|MontageTest|BlastTest|WorkflowGolden|OpSchedulerBurst"
tests="$tests|EnvelopeGolden|EnvelopeAccounting"
# Latency samples are recorded by a scope-exit recorder while an op's
# coroutine frame is torn down, and the histogram's exemplar reservoir
# skips untraced samples; the registry-neutrality runs cover both.
tests="$tests|ExemplarTest|RegistryNeutralityTest"
echo "== sanitizers: event heap, pool, future, semaphore, solver, payload, kv, chaos, client, replication, metadata, workflow, envelope and latency-recording tests =="
ctest --test-dir "$root/build-asan" -R "$tests" --output-on-failure

# TSan and ASan cannot live in one binary, so thread gets its own tree.
# Probe first: some toolchains ship without libtsan.
if printf 'int main(){return 0;}' | \
   c++ -fsanitize=thread -x c++ - -o /tmp/memfs_tsan_probe 2>/dev/null; then
  rm -f /tmp/memfs_tsan_probe
  echo "== sanitizers: configure + build (thread) =="
  cmake -S "$root" -B "$root/build-tsan" -DMEMFS_SANITIZE=thread >/dev/null
  cmake --build "$root/build-tsan" -j "$jobs"

  echo "== sanitizers: determinism gate under TSan =="
  ctest --test-dir "$root/build-tsan" -L determinism --output-on-failure

  echo "== sanitizers: event heap, pool, future, semaphore, solver, payload, kv, chaos, client, replication, metadata, workflow, envelope and latency-recording tests under TSan =="
  ctest --test-dir "$root/build-tsan" -R "$tests" --output-on-failure
else
  echo "== sanitizers: thread skipped (toolchain has no libtsan) =="
fi

echo "check.sh: all gates passed"
